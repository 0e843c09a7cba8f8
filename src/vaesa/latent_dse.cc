#include "vaesa/latent_dse.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/numeric.hh"

namespace vaesa {

LatentObjective::LatentObjective(VaesaFramework &framework,
                                 const Evaluator &evaluator,
                                 Workload workload, double radius,
                                 Metric metric)
    : framework_(framework), evaluator_(evaluator),
      workload_(std::move(workload)), radius_(radius), metric_(metric)
{
    if (workload_.layers.empty())
        fatal("LatentObjective needs at least one layer");
    if (radius_ <= 0.0)
        fatal("LatentObjective radius must be positive");
}

LatentObjective::LatentObjective(VaesaFramework &framework,
                                 const Evaluator &evaluator,
                                 std::vector<LayerShape> layers,
                                 double radius, Metric metric)
    : LatentObjective(framework, evaluator,
                      Workload{"", std::move(layers), {}}, radius,
                      metric)
{
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
    return metricValue(evaluator_.evaluateWorkload(config, workload_),
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

} // namespace vaesa
