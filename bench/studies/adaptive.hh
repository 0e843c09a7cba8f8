/**
 * @file
 * Adaptive latent-space BO: the paper's dataset-growth flow
 * (Section III-B3 -- "as we explore more hardware designs during
 * DSE, we can expand the dataset and retrain or fine tune the VAE
 * and predictor models"). Every design the search evaluates is
 * recorded as per-layer training samples; periodically the framework
 * is fine-tuned on the accumulated data, refreshing the decoder
 * manifold around the regions the search is actually visiting. The
 * BO surrogate is warm-started across fine-tunes.
 */

#ifndef VAESA_BENCH_STUDIES_ADAPTIVE_HH
#define VAESA_BENCH_STUDIES_ADAPTIVE_HH

#include <vector>

#include "dse/bo.hh"
#include "vaesa/latent_dse.hh"

namespace vaesa {

/** Tunables of the adaptive flow. */
struct AdaptiveBoOptions
{
    /** Inner BO configuration. */
    BoOptions bo;

    /** Simulator samples between fine-tunes. */
    std::size_t retrainInterval = 50;

    /** Epochs per fine-tune. */
    std::size_t fineTuneEpochs = 4;

    /** Skip a fine-tune when fewer new per-layer samples than this
     *  accumulated since the last one. */
    std::size_t minNewSamples = 32;

    /** Latent box half-width. */
    double radius = 3.0;

    /** Metric to minimize. */
    Metric metric = Metric::Edp;
};

/**
 * Latent-space BO with periodic dataset growth and fine-tuning.
 * Mutates the framework (its weights improve as the search runs).
 */
class AdaptiveVaeBo
{
  public:
    /**
     * @param framework trained instance to search with and fine-tune
     *        (borrowed, mutated).
     * @param evaluator scoring backend (borrowed).
     * @param options flow tunables.
     */
    AdaptiveVaeBo(VaesaFramework &framework,
                  const Evaluator &evaluator,
                  const AdaptiveBoOptions &options);

    /**
     * Minimize the workload metric with a fixed simulator budget.
     * A design's score is the metric of
     * Evaluator::evaluateWorkload(design, workload), occurrence
     * counts included; its samples are one per unique layer.
     * @param workload workload to search for.
     * @param samples total decoded-design evaluations.
     * @param rng seeded generator (search + fine-tune shuffling).
     * @return chronological trace over the latent box.
     */
    SearchTrace run(const Workload &workload, std::size_t samples,
                    Rng &rng);

    /** Per-layer samples gathered during the last run(). */
    const std::vector<DataSample> &gathered() const
    {
        return gathered_;
    }

    /** Number of fine-tunes performed during the last run(). */
    std::size_t fineTuneCount() const { return fineTunes_; }

  private:
    VaesaFramework &framework_;
    const Evaluator &evaluator_;
    AdaptiveBoOptions options_;
    std::vector<DataSample> gathered_;
    std::size_t fineTunes_ = 0;
};

} // namespace vaesa

#endif // VAESA_BENCH_STUDIES_ADAPTIVE_HH
