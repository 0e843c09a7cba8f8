#include "studies/latent.hh"

#include <cmath>

#include "nn/loss.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace vaesa {

namespace {

/** Denormalized prediction of one head at z, in linear units. */
double
predictedLinear(Predictor &head, const Normalizer &labels,
                const std::vector<double> &z,
                const std::vector<double> &layer_feats)
{
    Matrix zm(1, z.size());
    zm.setRow(0, z);
    Matrix fm(1, layer_feats.size());
    fm.setRow(0, layer_feats);
    const double unit = head.forward(zm, fm)(0, 0);
    return std::exp2(labels.inverse({unit})[0]);
}

/** log2 EDP of sample i (its log labels add up). */
double
sampleLogEdp(const Dataset &data, std::size_t i)
{
    return data.samples()[i].logLatency + data.samples()[i].logEnergy;
}

} // namespace

double
predictedLatency(VaesaFramework &framework, const std::vector<double> &z,
                 const std::vector<double> &layer_feats)
{
    return predictedLinear(framework.latencyPredictor(),
                           framework.latencyNormalizer(), z,
                           layer_feats);
}

double
predictedEnergy(VaesaFramework &framework, const std::vector<double> &z,
                const std::vector<double> &layer_feats)
{
    return predictedLinear(framework.energyPredictor(),
                           framework.energyNormalizer(), z,
                           layer_feats);
}

double
predictedEdp(VaesaFramework &framework, const std::vector<double> &z,
             const std::vector<double> &layer_feats)
{
    return predictedLatency(framework, z, layer_feats) *
           predictedEnergy(framework, z, layer_feats);
}

double
correlation(const std::vector<double> &xs, const std::vector<double> &ys)
{
    if (xs.size() != ys.size())
        panic("correlation requires equal-length samples");
    if (xs.size() < 2)
        return 0.0;
    const double mx = mean(xs);
    const double my = mean(ys);
    double sxy = 0.0;
    double sxx = 0.0;
    double syy = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double dx = xs[i] - mx;
        const double dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx <= 0.0 || syy <= 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

double
reconstructionError(VaesaFramework &framework, const Dataset &data)
{
    Rng noiseless(0);
    Vae::ForwardResult fr;
    framework.vae().forwardInto(data.hwFeatures(), noiseless, false, fr);
    nn::LossResult loss{0.0, Matrix()};
    nn::mseLossInto(fr.recon, data.hwFeatures(), loss);
    return loss.value;
}

double
sampleEdp(const Dataset &data, std::size_t i)
{
    if (i >= data.size())
        panic("sampleEdp: index out of range");
    return std::exp2(sampleLogEdp(data, i));
}

std::size_t
worstSampleIndex(const Dataset &data)
{
    std::size_t worst = 0;
    double worst_log = -1e300;
    for (std::size_t i = 0; i < data.size(); ++i) {
        const double l = sampleLogEdp(data, i);
        if (l > worst_log) {
            worst_log = l;
            worst = i;
        }
    }
    return worst;
}

std::size_t
bestSampleIndex(const Dataset &data)
{
    std::size_t best = 0;
    double best_log = 1e300;
    for (std::size_t i = 0; i < data.size(); ++i) {
        const double l = sampleLogEdp(data, i);
        if (l < best_log) {
            best_log = l;
            best = i;
        }
    }
    return best;
}

std::vector<InterpolationPoint>
interpolationStudy(VaesaFramework &framework, const Evaluator &evaluator,
                   const Dataset &data, const LayerShape &layer,
                   std::size_t segments, std::size_t overshoot)
{
    if (segments == 0)
        fatal("interpolationStudy needs at least one segment");

    const std::vector<double> z0 = framework.encodeConfig(
        data.samples()[worstSampleIndex(data)].config);
    const std::vector<double> z1 = framework.encodeConfig(
        data.samples()[bestSampleIndex(data)].config);
    const std::vector<double> feats =
        framework.normalizedLayerFeatures(layer);

    std::vector<InterpolationPoint> points;
    const std::size_t total = segments + overshoot;
    points.reserve(total + 1);
    for (std::size_t j = 0; j <= total; ++j) {
        InterpolationPoint pt;
        pt.t = static_cast<double>(j) /
               static_cast<double>(segments);
        pt.z.resize(z0.size());
        for (std::size_t d = 0; d < z0.size(); ++d)
            pt.z[d] = z0[d] + pt.t * (z1[d] - z0[d]);
        pt.predictedEdp = predictedEdp(framework, pt.z, feats);
        const AcceleratorConfig config =
            framework.decodeLatent(pt.z);
        const EvalResult real =
            evaluator.evaluateLayer(config, layer);
        pt.realEdp = real.valid ? real.edp : invalidScore;
        points.push_back(std::move(pt));
    }
    return points;
}

std::vector<double>
gdStepStudy(VaesaFramework &framework, const Evaluator &evaluator,
            const LayerShape &layer, std::size_t starts,
            const std::vector<std::size_t> &step_marks,
            const VaeGdOptions &options, Rng &rng)
{
    const Rng first = rng;
    std::vector<double> means;
    means.reserve(step_marks.size());
    for (std::size_t mark : step_marks) {
        VaeGdOptions mark_opts = options;
        mark_opts.steps = mark;
        mark_opts.screenStarts = 1;
        rng = first;
        const SearchTrace trace = vaeGdSearch(
            framework, evaluator, layer, starts, mark_opts, rng);

        // Geometric mean over starts: the paper's 306x/390x
        // improvement factors are ratios of decoded EDPs, which are
        // log-scale data.
        double log_sum = 0.0;
        std::size_t count = 0;
        for (const TracePoint &point : trace.points) {
            if (point.value < invalidScore && point.value > 0.0) {
                log_sum += std::log(point.value);
                ++count;
            }
        }
        means.push_back(count > 0 ? std::exp(log_sum /
                                             static_cast<double>(count))
                                  : invalidScore);
    }
    return means;
}

} // namespace vaesa
