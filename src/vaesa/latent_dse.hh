/**
 * @file
 * Latent-space design space exploration (Figure 6): the latent-box
 * Objective for vae_bo, the predictor-driven vae_gd flow and the
 * input-space gd baseline.
 */

#ifndef VAESA_VAESA_LATENT_DSE_HH
#define VAESA_VAESA_LATENT_DSE_HH

#include <vector>

#include "dse/gd.hh"
#include "dse/objective.hh"
#include "vaesa/framework.hh"

namespace vaesa {

/**
 * Objective over the latent box [-radius, radius]^latentDim: decode,
 * schedule, simulate, return workload EDP (Figure 6a).
 */
class LatentObjective : public Objective
{
  public:
    /**
     * @param framework trained VAESA instance (borrowed).
     * @param evaluator scoring backend (borrowed).
     * @param workload the (occurrence-counted) workload to score.
     * @param radius half-width of the latent search box; the KL term
     *        concentrates encodings near the origin, so 3 sigma
     *        covers effectively all of the learned distribution.
     */
    LatentObjective(VaesaFramework &framework,
                    const Evaluator &evaluator, Workload workload,
                    double radius = 3.0,
                    Metric metric = Metric::Edp);

    /** Paper mode: every layer once (a workload with empty counts). */
    LatentObjective(VaesaFramework &framework,
                    const Evaluator &evaluator,
                    std::vector<LayerShape> layers,
                    double radius = 3.0,
                    Metric metric = Metric::Edp);

    std::size_t dim() const override;
    std::vector<double> lowerBounds() const override;
    std::vector<double> upperBounds() const override;
    double evaluate(const std::vector<double> &x) override;

    /** Decode a latent point to its configuration. */
    AcceleratorConfig decode(const std::vector<double> &z);

    /** The metric being minimized. */
    Metric metric() const { return metric_; }

  private:
    VaesaFramework &framework_;
    const Evaluator &evaluator_;
    Workload workload_;
    double radius_;
    Metric metric_;
};

/** Tunables of the vae_gd / gd flows (Section IV-D). */
struct VaeGdOptions
{
    /** Gradient steps per start point. */
    std::size_t steps = 100;

    /** Step size. */
    double learningRate = 0.05;

    /** Momentum coefficient. */
    double momentum = 0.9;

    /** Stddev of the random latent starting points. */
    double startSigma = 1.0;

    /** Latent box half-width for projection. */
    double radius = 3.0;

    /**
     * Weight of a Gaussian-prior (MAP) term added to the latent
     * surrogate: minimize pred(z) + 0.5 * priorWeight * |z|^2.
     * LeakyReLU predictors are piecewise linear, so without the
     * prior the surrogate's minimum always sits on the box boundary
     * where the decoder extrapolates poorly; the prior keeps the
     * descent inside the region the VAE actually learned. Set to 0
     * for the raw surrogate. Ignored by the input-space gd baseline
     * (its box is the whole design space, so extrapolation is not an
     * issue there).
     */
    double priorWeight = 0.1;

    /**
     * Independent GD starts screened per simulated sample: the
     * endpoint with the best *predicted* score is the one decoded
     * and simulated. Screening costs only predictor evaluations.
     * CAUTION: enabled screening systematically selects the points
     * where the predictor is most over-optimistic (surrogate
     * exploitation), which measurably *hurts* real EDP -- see the
     * ablation in EXPERIMENTS.md. Disabled (1) by default.
     */
    std::size_t screenStarts = 1;
};

/**
 * One vae_gd sample: descend the predictor surface from a random
 * latent start, decode the optimized point, and score it for real.
 * Returns the trace of decoded-and-evaluated samples (one per start).
 *
 * @param framework trained VAESA instance.
 * @param evaluator scoring backend.
 * @param layer target layer (the GD study optimizes single layers).
 * @param starts number of random starts (= simulator samples).
 */
SearchTrace vaeGdSearch(VaesaFramework &framework,
                        const Evaluator &evaluator,
                        const LayerShape &layer, std::size_t starts,
                        const VaeGdOptions &options, Rng &rng);

/**
 * The paper's input-space gd baseline: a separately trained predictor
 * pair over the normalized 6-D input box; GD optimizes the continuous
 * input, which is then rounded to the grid and evaluated.
 */
class InputGdBaseline
{
  public:
    /**
     * Train the standalone predictor pair on the dataset.
     * @param data training set.
     * @param hidden predictor hidden widths.
     * @param train training hyperparameters.
     * @param seed init/shuffle seed.
     */
    InputGdBaseline(const Dataset &data,
                    const std::vector<std::size_t> &hidden,
                    const TrainOptions &train, std::uint64_t seed);

    /**
     * Run GD from random starts in the input box; decode (round to
     * grid) and evaluate each optimized point.
     */
    SearchTrace search(const Evaluator &evaluator,
                       const LayerShape &layer, std::size_t starts,
                       const VaeGdOptions &options, Rng &rng);

    /** Predictor-sum score over the input box, with gradient. */
    double predictScore(const std::vector<double> &x,
                        const std::vector<double> &layer_feats,
                        std::vector<double> *grad_x = nullptr);

    /** Layer-feature normalizer used at training time. */
    const Normalizer &layerNormalizer() const { return layerNorm_; }

  private:
    std::unique_ptr<Predictor> latencyPred_;
    std::unique_ptr<Predictor> energyPred_;
    Normalizer hwNorm_;
    Normalizer layerNorm_;
};

} // namespace vaesa

#endif // VAESA_VAESA_LATENT_DSE_HH
