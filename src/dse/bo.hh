/**
 * @file
 * Bayesian optimization over an Objective's box: GP surrogate +
 * expected-improvement acquisition. The identical driver produces the
 * `bo` baseline (on the 6-D input box) and the `vae_bo` flow (on the
 * latent box) of Figure 11 / Table V.
 */

#ifndef VAESA_DSE_BO_HH
#define VAESA_DSE_BO_HH

#include <cstddef>
#include <span>
#include <vector>

#include "dse/gp.hh"
#include "dse/objective.hh"
#include "dse/search_state.hh"
#include "util/deadline.hh"
#include "util/rng.hh"

namespace vaesa {

/** The acquisition's candidate counts, the BO driver's only
 *  tunables. */
struct BoOptions
{
    /** Uniform random acquisition candidates per iteration. */
    std::size_t uniformCandidates = 512;

    /** Gaussian perturbations of the incumbent per iteration. */
    std::size_t localCandidates = 128;
};

/** GP-EI Bayesian-optimization driver. */
class BayesOpt
{
  public:
    /** Random warm-up evaluations before the first GP fit. */
    static constexpr std::size_t initSamples = 10;

    /** Subset-of-data cap on GP training points (O(n^3) control):
     *  the best half and the most recent half of the history. */
    static constexpr std::size_t maxGpPoints = 192;

    /** Stddev of local perturbations, in box units. */
    static constexpr double perturbSigma = 0.08;

    /** Refit GP hyperparameters every this many iterations. */
    static constexpr std::size_t hyperRefitInterval = 16;

    /** Penalty factor mapping invalid points to a finite value
     *  strictly worse than every finite observation; exceeds 1.
     *  A positive worst finite value w maps to w times this factor;
     *  w <= 0 maps to w + (factor - 1) * max(|w|, w - best), or
     *  w + factor - 1 when that scale is 0. */
    static constexpr double invalidPenaltyFactor = 2.0;

    /** Driver with default options. */
    BayesOpt() = default;

    /** Driver with explicit options. */
    explicit BayesOpt(const BoOptions &options);

    /**
     * Minimize the objective with a fixed evaluation budget.
     * Candidates are always drawn from the rng before any scoring,
     * so a pool-enabled run reproduces the serial trace
     * seed-for-seed.
     * @param objective problem to minimize.
     * @param samples total objective evaluations (incl. warm-up).
     * @param rng seeded generator.
     * @param pool optional worker pool: fans out warm-up evaluations
     *        (when the objective is threadSafeEvaluate()) and the
     *        per-iteration acquisition candidate scoring (GP
     *        predictions are const and always safe to fan out).
     * @param checkpoint optional snapshot config: resume from an
     *        existing snapshot (trace, rng, GP hyperparameters,
     *        refit counter) and write one every `every` iterations
     *        (resumeSearch() panics on `every` == 0).
     *        A resumed run returns the trace an uninterrupted run
     *        would have produced.
     * @param cancel optional cancellation token, observed at
     *        iteration boundaries: an expired token stops the run
     *        and returns the partial best-so-far trace.
     * @return chronological trace of all samples.
     */
    SearchTrace
    run(Objective &objective, std::size_t samples, Rng &rng,
        ThreadPool *pool = nullptr,
        const SearchCheckpointConfig *checkpoint = nullptr,
        const CancelToken *cancel = nullptr) const;

    /**
     * Extend an existing trace by additional evaluations. Prior
     * points seed the GP (warm start); warm-up sampling only happens
     * when the trace is empty. Used by adaptive flows that alternate
     * search with model retraining. When checkpoint is given and the
     * incoming trace is empty, an existing snapshot is resumed and
     * its points count toward the budget.
     */
    void
    continueRun(Objective &objective, SearchTrace &trace,
                std::size_t additional, Rng &rng,
                ThreadPool *pool = nullptr,
                const SearchCheckpointConfig *checkpoint = nullptr,
                const CancelToken *cancel = nullptr) const;

  private:
    BoOptions options_;
};

/**
 * Expected improvement for minimization at a GP prediction.
 * @param best incumbent (smallest observed) value.
 */
double expectedImprovement(const GaussianProcess::Prediction &pred,
                           double best);

/** The candidate an acquisition picked. */
struct Acquisition
{
    /** Index into the candidates; 0 when none was scored (or every
     *  scored EI was NaN), the unscored fallback. */
    std::size_t index = 0;

    /** Expected improvement of the pick; -1 for the fallback. */
    double ei = -1.0;

    /** Candidates that went through the GP's forward substitution. */
    std::size_t solved = 0;

    /** Candidates that got GaussianProcess::refineBatch()'s subset
     *  bound: those still able to win after the first solve round. */
    std::size_t refined = 0;
};

/**
 * Pick the candidate of largest expected improvement: the first
 * strict maximum by index over candidates[1..], with candidates[0]
 * the unscored fallback. Every scored candidate is first bounded by
 * GaussianProcess::boundBatch(), whose bounds give an upper bound on
 * its EI; candidates are then solved in descending bound order, a
 * tile at a time, until no remaining bound can reach the best EI
 * found. After the first tile, the candidates that can still win get
 * GaussianProcess::refineBatch()'s tighter variance bound before any
 * further solve. A pruned candidate cannot be the maximum, and a solved
 * one's prediction is bit-identical to a full-batch predictBatch(),
 * so the pick and its EI bits equal a full scan's. The pool, when
 * given, fans both passes out in tile-aligned chunks; the pick does
 * not depend on its worker count. Requires a fitted gp and a
 * non-empty candidates.
 */
Acquisition selectCandidate(const GaussianProcess &gp,
                            std::span<const std::vector<double>> candidates,
                            double best, ThreadPool *pool = nullptr);

} // namespace vaesa

#endif // VAESA_DSE_BO_HH
