#include "studies/adaptive.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/numeric.hh"

namespace vaesa {

namespace {

/**
 * Latent objective that records every decoded design's per-layer
 * results as training samples while scoring the workload metric.
 * Each unique layer is scored once and recorded once; its latency
 * and energy enter the totals weighted by its occurrence count, as
 * in Evaluator::evaluateWorkload(), whose result the score equals
 * bit for bit.
 */
class RecordingLatentObjective : public Objective
{
  public:
    RecordingLatentObjective(VaesaFramework &framework,
                             const Evaluator &evaluator,
                             const Workload &workload,
                             double radius, Metric metric,
                             std::vector<DataSample> &sink)
        : framework_(framework), evaluator_(evaluator),
          workload_(workload), radius_(radius), metric_(metric),
          sink_(sink)
    {
    }

    std::size_t dim() const override
    {
        return framework_.latentDim();
    }

    std::vector<double> lowerBounds() const override
    {
        return std::vector<double>(dim(), -radius_);
    }

    std::vector<double> upperBounds() const override
    {
        return std::vector<double>(dim(), radius_);
    }

    double
    evaluate(const std::vector<double> &x) override
    {
        const AcceleratorConfig config =
            framework_.decodeLatent(x);
        const std::vector<LayerShape> &layers = workload_.layers;
        EvalResult total;
        total.valid = true;
        for (std::size_t li = 0; li < layers.size(); ++li) {
            const EvalResult r =
                evaluator_.evaluateLayer(config, layers[li]);
            if (!r.valid) {
                total.valid = false;
                break;
            }
            const double n =
                static_cast<double>(workload_.countOf(li));
            total.latencyCycles += n * r.latencyCycles;
            total.energyPj += n * r.energyPj;

            DataSample sample;
            sample.config = config;
            sample.layerIndex = li;
            sample.hwFeatures = designSpace().toFeatures(config);
            sample.layerFeatures = layers[li].toFeatures();
            sample.logLatency = log2d(r.latencyCycles);
            sample.logEnergy = log2d(r.energyPj);
            sink_.push_back(std::move(sample));
        }
        total.edp = total.latencyCycles * total.energyPj;
        return metricValue(total, metric_);
    }

  private:
    VaesaFramework &framework_;
    const Evaluator &evaluator_;
    const Workload &workload_;
    double radius_;
    Metric metric_;
    std::vector<DataSample> &sink_;
};

} // namespace

AdaptiveVaeBo::AdaptiveVaeBo(VaesaFramework &framework,
                             const Evaluator &evaluator,
                             const AdaptiveBoOptions &options)
    : framework_(framework), evaluator_(evaluator), options_(options)
{
}

SearchTrace
AdaptiveVaeBo::run(const Workload &workload, std::size_t samples,
                   Rng &rng)
{
    if (workload.layers.empty())
        fatal("AdaptiveVaeBo::run needs at least one layer");
    gathered_.clear();
    fineTunes_ = 0;

    RecordingLatentObjective objective(framework_, evaluator_,
                                       workload, options_.radius,
                                       options_.metric, gathered_);
    const BayesOpt bo(options_.bo);
    SearchTrace trace;
    std::size_t tuned_until = 0;

    while (trace.points.size() < samples) {
        const std::size_t chunk =
            std::min(options_.retrainInterval,
                     samples - trace.points.size());
        bo.continueRun(objective, trace, chunk, rng);

        const std::size_t fresh = gathered_.size() - tuned_until;
        if (trace.points.size() < samples &&
            fresh >= options_.minNewSamples) {
            // Fine-tune on everything gathered so far (old samples
            // included, so the model does not forget the rest of the
            // space).
            const Dataset growth(gathered_, workload.layers);
            framework_.fineTune(growth, options_.fineTuneEpochs,
                                rng.next());
            tuned_until = gathered_.size();
            ++fineTunes_;
            debugLog("adaptive vae_bo: fine-tune #", fineTunes_,
                     " on ", gathered_.size(), " samples");
        }
    }
    return trace;
}

} // namespace vaesa
