#include "vaesa/latent_dse.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/numeric.hh"

namespace vaesa {

LatentObjective::LatentObjective(VaesaFramework &framework,
                                 const Evaluator &evaluator,
                                 std::vector<LayerShape> layers,
                                 double radius, Metric metric)
    : framework_(framework), evaluator_(evaluator),
      layers_(std::move(layers)), radius_(radius), metric_(metric)
{
    if (layers_.empty())
        fatal("LatentObjective needs at least one layer");
    if (radius_ <= 0.0)
        fatal("LatentObjective radius must be positive");
}

std::size_t
LatentObjective::dim() const
{
    return framework_.latentDim();
}

std::vector<double>
LatentObjective::lowerBounds() const
{
    return std::vector<double>(dim(), -radius_);
}

std::vector<double>
LatentObjective::upperBounds() const
{
    return std::vector<double>(dim(), radius_);
}

AcceleratorConfig
LatentObjective::decode(const std::vector<double> &z)
{
    return framework_.decodeLatent(z);
}

double
LatentObjective::evaluate(const std::vector<double> &x)
{
    const AcceleratorConfig config = framework_.decodeLatent(x);
    return metricValue(evaluator_.evaluateWorkload(config, layers_),
                       metric_);
}

namespace {

/** Projected-GD options shared by the latent and input flows. */
GdOptions
makeGdOptions(const VaeGdOptions &options, std::size_t dim, double lo,
              double hi)
{
    GdOptions gd;
    gd.learningRate = options.learningRate;
    gd.momentum = options.momentum;
    gd.steps = options.steps;
    gd.lower.assign(dim, lo);
    gd.upper.assign(dim, hi);
    return gd;
}

} // namespace

namespace {

/** Latent surrogate: predictor sum plus the Gaussian-prior term. */
DifferentiableFn
latentSurrogate(VaesaFramework &framework,
                const std::vector<double> &feats, double prior_weight)
{
    return [&framework, feats, prior_weight](
               const std::vector<double> &z,
               std::vector<double> *grad) {
        double score = framework.predictScore(z, feats, grad);
        for (std::size_t d = 0; d < z.size(); ++d) {
            score += 0.5 * prior_weight * z[d] * z[d];
            if (grad)
                (*grad)[d] += prior_weight * z[d];
        }
        return score;
    };
}

} // namespace

SearchTrace
vaeGdSearch(VaesaFramework &framework, const Evaluator &evaluator,
            const LayerShape &layer, std::size_t starts,
            const VaeGdOptions &options, Rng &rng)
{
    const std::size_t dim = framework.latentDim();
    const std::vector<double> feats =
        framework.normalizedLayerFeatures(layer);
    const GradientDescent gd(makeGdOptions(options, dim,
                                           -options.radius,
                                           options.radius));
    const DifferentiableFn surrogate =
        latentSurrogate(framework, feats, options.priorWeight);

    SearchTrace trace;
    const std::size_t screen =
        std::max<std::size_t>(1, options.screenStarts);
    for (std::size_t i = 0; i < starts; ++i) {
        // Screen several descents by predicted score; simulate only
        // the most promising endpoint.
        GdResult best_result;
        double best_score = invalidScore;
        for (std::size_t s = 0; s < screen; ++s) {
            std::vector<double> z0(dim);
            for (double &v : z0)
                v = rng.normal(0.0, options.startSigma);
            GdResult result = gd.run(surrogate, z0);
            if (result.value < best_score) {
                best_score = result.value;
                best_result = std::move(result);
            }
        }
        const AcceleratorConfig config =
            framework.decodeLatent(best_result.x);
        const EvalResult real =
            evaluator.evaluateLayer(config, layer);
        trace.add(best_result.x,
                  real.valid ? real.edp : invalidScore);
    }
    return trace;
}

std::vector<double>
vaeGdStepStudy(VaesaFramework &framework, const Evaluator &evaluator,
               const LayerShape &layer, std::size_t starts,
               const std::vector<std::size_t> &step_marks,
               const VaeGdOptions &options, Rng &rng)
{
    const std::size_t dim = framework.latentDim();
    const std::vector<double> feats =
        framework.normalizedLayerFeatures(layer);
    const DifferentiableFn surrogate =
        latentSurrogate(framework, feats, options.priorWeight);

    // Geometric mean over starts: the paper's 306x/390x improvement
    // factors are ratios of decoded EDPs, which are log-scale data.
    std::vector<double> log_sums(step_marks.size(), 0.0);
    std::vector<std::size_t> counts(step_marks.size(), 0);

    for (std::size_t i = 0; i < starts; ++i) {
        std::vector<double> z0(dim);
        for (double &v : z0)
            v = rng.normal(0.0, options.startSigma);

        for (std::size_t m = 0; m < step_marks.size(); ++m) {
            VaeGdOptions mark_opts = options;
            mark_opts.steps = step_marks[m];
            const GradientDescent gd(makeGdOptions(
                mark_opts, dim, -options.radius, options.radius));
            const GdResult result = gd.run(surrogate, z0);
            const AcceleratorConfig config =
                framework.decodeLatent(result.x);
            const EvalResult real =
                evaluator.evaluateLayer(config, layer);
            if (real.valid && real.edp > 0.0) {
                log_sums[m] += std::log(real.edp);
                ++counts[m];
            }
        }
    }

    std::vector<double> means(step_marks.size(), invalidScore);
    for (std::size_t m = 0; m < step_marks.size(); ++m)
        if (counts[m] > 0)
            means[m] = std::exp(log_sums[m] /
                                static_cast<double>(counts[m]));
    return means;
}

InputGdBaseline::InputGdBaseline(const Dataset &data,
                                 const std::vector<std::size_t> &hidden,
                                 const TrainOptions &train,
                                 std::uint64_t seed)
    : hwNorm_(data.hwNormalizer()), layerNorm_(data.layerNormalizer())
{
    Rng rng(seed);
    PredictorOptions opts;
    opts.designDim = numHwParams;
    opts.layerDim = numLayerFeatures;
    opts.hiddenDims = hidden;
    latencyPred_ = std::make_unique<Predictor>(opts, rng,
                                               "gd.latency");
    energyPred_ = std::make_unique<Predictor>(opts, rng, "gd.energy");

    PredictorTrainer lat_trainer(*latencyPred_, train);
    lat_trainer.train(data.hwFeatures(), data.layerFeatures(),
                      data.latencyLabels(), rng);
    PredictorTrainer en_trainer(*energyPred_, train);
    en_trainer.train(data.hwFeatures(), data.layerFeatures(),
                     data.energyLabels(), rng);
}

double
InputGdBaseline::predictScore(const std::vector<double> &x,
                              const std::vector<double> &layer_feats,
                              std::vector<double> *grad_x)
{
    Matrix xm(1, x.size());
    xm.setRow(0, x);
    Matrix fm(1, layer_feats.size());
    fm.setRow(0, layer_feats);

    const Matrix lat = latencyPred_->forward(xm, fm);
    double score = lat(0, 0);
    Matrix ones(1, 1, 1.0);
    Matrix grad;
    if (grad_x)
        grad = latencyPred_->backward(ones);

    const Matrix en = energyPred_->forward(xm, fm);
    score += en(0, 0);
    if (grad_x) {
        grad.add(energyPred_->backward(ones));
        *grad_x = grad.row(0);
    }
    return score;
}

SearchTrace
InputGdBaseline::search(const Evaluator &evaluator,
                        const LayerShape &layer, std::size_t starts,
                        const VaeGdOptions &options, Rng &rng)
{
    const std::vector<double> feats =
        layerNorm_.transform(layer.toFeatures());
    const GradientDescent gd(
        makeGdOptions(options, numHwParams, 0.0, 1.0));
    const DifferentiableFn surrogate =
        [&](const std::vector<double> &x, std::vector<double> *grad) {
            return predictScore(x, feats, grad);
        };

    SearchTrace trace;
    for (std::size_t i = 0; i < starts; ++i) {
        std::vector<double> x0(numHwParams);
        for (double &v : x0)
            v = rng.uniform();
        const GdResult result = gd.run(surrogate, x0);
        const AcceleratorConfig config = designSpace().fromFeatures(
            hwNorm_.inverse(result.x));
        const EvalResult real =
            evaluator.evaluateLayer(config, layer);
        trace.add(result.x, real.valid ? real.edp : invalidScore);
    }
    return trace;
}

std::vector<InterpolationPoint>
interpolationStudy(VaesaFramework &framework, const Evaluator &evaluator,
                   const Dataset &data, const LayerShape &layer,
                   std::size_t segments, std::size_t overshoot)
{
    if (segments == 0)
        fatal("interpolationStudy needs at least one segment");

    const std::size_t worst = data.worstSampleIndex();
    const std::size_t best = data.bestSampleIndex();
    const std::vector<double> z0 =
        framework.encodeConfig(data.samples()[worst].config);
    const std::vector<double> z1 =
        framework.encodeConfig(data.samples()[best].config);
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
        pt.predictedEdp = framework.predictedEdp(pt.z, feats);
        const AcceleratorConfig config =
            framework.decodeLatent(pt.z);
        const EvalResult real =
            evaluator.evaluateLayer(config, layer);
        pt.realEdp = real.valid ? real.edp : invalidScore;
        points.push_back(std::move(pt));
    }
    return points;
}

} // namespace vaesa
