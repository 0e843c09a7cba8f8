#include "dse/bo.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "util/atomic_io.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/numeric.hh"
#include "util/thread_pool.hh"
#include "util/trace.hh"

namespace vaesa {

namespace {

/** BO driver instruments, resolved once. */
struct BoMetrics
{
    metrics::Counter &iterations =
        metrics::counter("search.bo.iterations");
    metrics::Histogram &fitNs =
        metrics::histogram("search.bo.fit_ns");
    metrics::Histogram &hyperNs =
        metrics::histogram("search.bo.hyper_ns");
    metrics::Histogram &acqNs =
        metrics::histogram("search.bo.acq_ns");
    metrics::Histogram &boundNs =
        metrics::histogram("search.bo.bound_ns");
    metrics::Histogram &refineNs =
        metrics::histogram("search.bo.refine_ns");
    metrics::Histogram &solveNs =
        metrics::histogram("search.bo.solve_ns");
    metrics::Counter &candidates =
        metrics::counter("search.bo.candidates");
    metrics::Counter &solved = metrics::counter("search.bo.solved");
    metrics::Counter &refined = metrics::counter("search.bo.refined");
};

BoMetrics &
boMetrics()
{
    static BoMetrics m;
    return m;
}

/** BO snapshot payload: surrogate hyper-state at an iteration
 *  boundary. The GP is fit to the trace every iteration, so only the
 *  slow-moving hyperparameters need saving: a resumed GP starts with
 *  no Cholesky factor and refactors in full at its first fit, and
 *  since an extended factor is bit-identical to a full one the
 *  resumed trace matches the uninterrupted run. */
struct BoResumeState
{
    bool hasHyper = false;
    GaussianProcess::Hyper hyper;
    std::uint64_t iterationsSinceRefit = 0;
};

std::string
encodeBoState(const BoResumeState &state)
{
    ByteBuffer out;
    out.putU32(state.hasHyper ? 1 : 0);
    out.putF64(state.hyper.lengthscale);
    out.putF64(state.hyper.noiseVar);
    out.putU64(state.iterationsSinceRefit);
    return out.data();
}

bool
decodeBoState(const std::string &payload, BoResumeState &state)
{
    ByteReader in(payload.data(), payload.size());
    const std::uint32_t flag = in.getU32();
    state.hyper.lengthscale = in.getF64();
    state.hyper.noiseVar = in.getF64();
    state.iterationsSinceRefit = in.getU64();
    if (in.failed() || !in.atEnd() || flag > 1)
        return false;
    state.hasHyper = flag == 1;
    return true;
}

/**
 * Finite stand-in for invalid observations, strictly worse than every
 * finite value (for factor > 1). A positive worst value is scaled by
 * the factor. At or below zero scaling would not move it up, so it is
 * raised by (factor - 1) times the larger of |worst| and the spread of
 * the finite values (1 when both are 0).
 */
double
invalidPenalty(double worst, double best, double factor)
{
    if (worst > 0.0)
        return worst * factor;
    double scale = std::max(-worst, worst - best);
    if (!(scale > 0.0))
        scale = 1.0;
    return worst + (factor - 1.0) * scale;
}

/** Relative slack of the EI upper bound. expectedImprovement() is
 *  rounded both at the bounds and at the prediction; while EI is a
 *  normal number (z above about -38) the worst case, large negative
 *  z, loses ~z^2 to cancellation on top of ~z^2 ulps of exp/erfc
 *  rounding, under 1e-9 relative. */
constexpr double kEiRelSlack = 1e-6;

/** Absolute slack of the EI upper bound, for subnormal EI values,
 *  whose rounding is absolute (a few 2^-1074). */
constexpr double kEiAbsSlack = 1e-300;

/** Upper bound on the EI expectedImprovement() computes for any
 *  prediction within the bound: EI falls as the mean rises and grows
 *  with the variance. A NaN anywhere promises nothing: +inf. */
double
eiUpperBound(const GaussianProcess::Bound &bound, double best)
{
    if (std::isnan(bound.meanLower) || std::isnan(bound.varUpper))
        return std::numeric_limits<double>::infinity();
    const double ei =
        expectedImprovement({bound.meanLower, bound.varUpper}, best);
    const double upper = ei + std::abs(ei) * kEiRelSlack + kEiAbsSlack;
    return std::isnan(upper) ? std::numeric_limits<double>::infinity()
                             : upper;
}

/** body(from, len) over [0, n): one call without a pool, else one
 *  call per predictTile-aligned chunk on the pool's fork/join. */
template <typename Body>
void
forEachTileChunk(std::size_t n, ThreadPool *pool, const Body &body)
{
    if (!pool) {
        body(std::size_t{0}, n);
        return;
    }
    pool->forEachChunk(n, GaussianProcess::predictTile,
                       [&](std::size_t begin, std::size_t end) {
                           body(begin, end - begin);
                       });
}

} // namespace

Acquisition
selectCandidate(const GaussianProcess &gp,
                std::span<const std::vector<double>> candidates,
                double best, ThreadPool *pool)
{
    if (candidates.empty())
        panic("selectCandidate: no candidates");
    const std::span<const std::vector<double>> scored =
        candidates.subspan(1);
    const std::size_t m = scored.size();
    Acquisition pick;
    if (m == 0)
        return pick;

    BoMetrics &bm = boMetrics();
    std::vector<GaussianProcess::Bound> bounds(m);
    {
        const metrics::ScopedTimer timer(bm.boundNs);
        forEachTileChunk(m, pool, [&](std::size_t from, std::size_t len) {
            gp.boundBatch(scored.subspan(from, len),
                          std::span(bounds).subspan(from, len));
        });
    }
    struct Ranked
    {
        double upper;
        std::size_t index;
    };
    std::vector<Ranked> order(m);
    for (std::size_t i = 0; i < m; ++i)
        order[i] = {eiUpperBound(bounds[i], best), i};
    // Descending EI bound; the index breaks ties so the order is
    // deterministic.
    const auto higher = [](const Ranked &a, const Ranked &b) {
        return a.upper > b.upper ||
               (a.upper == b.upper && a.index < b.index);
    };

    // Solve in rounds of one tile per worker, in descending bound
    // order. A candidate whose bound is below the best EI so far
    // cannot win, nor can any after it. Only the first round is
    // ordered up front. After it, the candidates that can no longer
    // win are dropped, the rest get the tighter subset variance bound
    // (refineBatch) and are dropped again by it, and what is left is
    // sorted. The pick is the largest EI, the lowest index among
    // equals: the first strict maximum of a scan in index order.
    const std::size_t round =
        GaussianProcess::predictTile *
        (pool ? std::max<std::size_t>(1, pool->threadCount()) : 1);
    const std::size_t first = std::min(round, m);
    std::partial_sort(order.begin(), order.begin() + first, order.end(),
                      higher);
    const auto cannot_win = [&](const Ranked &r) {
        return r.upper < pick.ei;
    };
    std::vector<std::vector<double>> batch(first);
    std::vector<GaussianProcess::Prediction> preds(first);
    std::size_t next = 0;
    while (next < order.size()) {
        if (next == first) {
            order.erase(std::remove_if(order.begin() + first, order.end(),
                                       cannot_win),
                        order.end());
            const std::size_t rest = order.size() - first;
            batch.resize(std::max(first, rest));
            std::vector<GaussianProcess::Bound> refined(rest);
            for (std::size_t k = 0; k < rest; ++k) {
                batch[k] = scored[order[first + k].index];
                refined[k] = bounds[order[first + k].index];
            }
            const std::span<const std::vector<double>> refining =
                std::span(batch).first(rest);
            {
                const metrics::ScopedTimer timer(bm.refineNs);
                forEachTileChunk(
                    rest, pool, [&](std::size_t from, std::size_t len) {
                        gp.refineBatch(refining.subspan(from, len),
                                       std::span(refined).subspan(from, len));
                    });
            }
            for (std::size_t k = 0; k < rest; ++k)
                order[first + k].upper = eiUpperBound(refined[k], best);
            pick.refined = rest;
            order.erase(std::remove_if(order.begin() + first, order.end(),
                                       cannot_win),
                        order.end());
            std::sort(order.begin() + first, order.end(), higher);
        }
        std::size_t count = 0;
        while (count < first && next + count < order.size() &&
               !cannot_win(order[next + count])) {
            batch[count] = scored[order[next + count].index];
            ++count;
        }
        if (count == 0)
            break;
        const std::span<const std::vector<double>> solving =
            std::span(batch).first(count);
        {
            const metrics::ScopedTimer timer(bm.solveNs);
            forEachTileChunk(count, pool,
                             [&](std::size_t from, std::size_t len) {
                                 gp.predictBatch(
                                     solving.subspan(from, len),
                                     std::span(preds).subspan(from, len));
                             });
        }
        for (std::size_t k = 0; k < count; ++k) {
            const std::size_t index = order[next + k].index + 1;
            const double ei = expectedImprovement(preds[k], best);
            if (ei > pick.ei || (ei == pick.ei && index < pick.index)) {
                pick.ei = ei;
                pick.index = index;
            }
        }
        next += count;
        pick.solved += count;
    }
    return pick;
}

BayesOpt::BayesOpt(const BoOptions &options)
    : options_(options)
{
}

double
expectedImprovement(const GaussianProcess::Prediction &pred, double best)
{
    // NaN-safe clamp: std::max(NaN, 0.0) returns NaN, so a predictive
    // variance poisoned upstream (near-duplicate training points can
    // drive the Cholesky solve slightly negative or non-finite) would
    // make sigma NaN and every EI comparison false -- the acquisition
    // would silently fall back to its unscored candidate forever.
    // The (var > 0) test is false for negatives, zero, and NaN alike.
    const double var = pred.var > 0.0 ? pred.var : 0.0;
    const double sigma = std::sqrt(var);
    if (sigma < 1e-12)
        return std::max(best - pred.mean, 0.0);
    const double z = (best - pred.mean) / sigma;
    return (best - pred.mean) * normalCdf(z) + sigma * normalPdf(z);
}

SearchTrace
BayesOpt::run(Objective &objective, std::size_t samples, Rng &rng,
              ThreadPool *pool,
              const SearchCheckpointConfig *checkpoint,
              const CancelToken *cancel) const
{
    SearchTrace trace;
    continueRun(objective, trace, samples, rng, pool, checkpoint,
                cancel);
    return trace;
}

void
BayesOpt::continueRun(Objective &objective, SearchTrace &trace,
                      std::size_t additional, Rng &rng,
                      ThreadPool *pool,
                      const SearchCheckpointConfig *checkpoint,
                      const CancelToken *cancel) const
{
    const std::vector<double> lo = objective.lowerBounds();
    const std::vector<double> hi = objective.upperBounds();
    const std::size_t dim = objective.dim();

    // Resume only when the caller starts from scratch (run()); the
    // restored points then count toward the budget, so a killed run
    // finishes with exactly the trace an uninterrupted one produces.
    // The surrogate payload is decoded before the trace and the rng
    // are taken, so a corrupt one starts the run fresh.
    BoResumeState resume_state;
    bool resumed = false;
    if (checkpoint) {
        std::optional<SearchSnapshot> saved =
            resumeSearch(*checkpoint, SearchDriver::BayesOpt);
        if (saved && trace.points.empty()) {
            if (decodeBoState(saved->payload, resume_state)) {
                trace = std::move(saved->trace);
                rng.setState(saved->rng);
                resumed = true;
                inform("resuming BO from '", checkpoint->path,
                       "' at sample ", trace.points.size());
            } else {
                warn("ignoring BO snapshot with corrupt surrogate "
                     "payload");
            }
        }
    }
    const std::size_t samples =
        resumed ? std::max(additional, trace.points.size())
                : trace.points.size() + additional;

    auto sample_uniform = [&]() {
        std::vector<double> x(dim);
        for (std::size_t d = 0; d < dim; ++d)
            x[d] = rng.uniform(lo[d], hi[d]);
        return x;
    };

    if (cancel && cancel->expired())
        return; // nothing evaluated; caller reports best-so-far

    // Warm-up (only for a fresh trace): draw every point, then score
    // them as one batch — rng stream and trace are identical with
    // and without a pool.
    if (trace.points.empty()) {
        const std::size_t warmup =
            std::min(initSamples, samples);
        std::vector<std::vector<double>> xs(warmup);
        for (std::size_t i = 0; i < warmup; ++i)
            xs[i] = sample_uniform();
        const std::vector<double> values =
            objective.evaluateBatch(xs, pool);
        for (std::size_t i = 0; i < warmup; ++i)
            trace.add(xs[i], values[i]);
    }

    GaussianProcess gp;
    std::size_t iterations_since_refit = hyperRefitInterval;
    bool hyper_known = false;
    if (resumed) {
        iterations_since_refit = static_cast<std::size_t>(
            resume_state.iterationsSinceRefit);
        if (resume_state.hasHyper) {
            gp.setHyper(resume_state.hyper);
            hyper_known = true;
        }
    }

    std::size_t iterations = 0;
    auto maybeSnapshot = [&]() {
        if (!checkpoint || checkpoint->path.empty() ||
            (iterations % checkpoint->every != 0 &&
             trace.points.size() < samples))
            return;
        SearchSnapshot snapshot;
        snapshot.driver = SearchDriver::BayesOpt;
        snapshot.trace = trace;
        snapshot.rng = rng.state();
        BoResumeState state;
        state.hasHyper = hyper_known;
        state.hyper = gp.hyper();
        state.iterationsSinceRefit = iterations_since_refit;
        snapshot.payload = encodeBoState(state);
        if (auto err = saveSearchSnapshot(checkpoint->path, snapshot))
            warn("search snapshot save failed: ", err->describe());
    };
    maybeSnapshot(); // cover the warm-up before the first iteration

    BoMetrics &bm = boMetrics();
    while (trace.points.size() < samples) {
        if (cancel && cancel->expired())
            return; // partial best-so-far
        const trace::Span iterSpan("bo.iteration");
        bm.iterations.inc();
        faultCheck("bo_iteration");
        // Penalize invalid observations to a finite value so the GP
        // learns to avoid the region instead of ignoring it.
        double worst_finite = -1e300;
        double best_finite = invalidScore;
        for (const TracePoint &p : trace.points) {
            if (std::isfinite(p.value)) {
                worst_finite = std::max(worst_finite, p.value);
                best_finite = std::min(best_finite, p.value);
            }
        }
        const bool any_finite = worst_finite > -1e300;
        const double penalty = any_finite
            ? invalidPenalty(worst_finite, best_finite,
                             invalidPenaltyFactor)
            : 1.0;

        if (!any_finite) {
            // Nothing to model yet; keep sampling at random.
            const std::vector<double> x = sample_uniform();
            trace.add(x, evaluateRecovered(objective, x));
            ++iterations;
            maybeSnapshot();
            continue;
        }

        // Subset-of-data selection: best half + most recent half.
        std::vector<std::size_t> chosen;
        const std::size_t n = trace.points.size();
        if (n <= maxGpPoints) {
            chosen.resize(n);
            for (std::size_t i = 0; i < n; ++i)
                chosen[i] = i;
        } else {
            std::vector<std::size_t> order(n);
            for (std::size_t i = 0; i < n; ++i)
                order[i] = i;
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) {
                          return trace.points[a].value <
                                 trace.points[b].value;
                      });
            std::vector<bool> taken(n, false);
            const std::size_t half = maxGpPoints / 2;
            for (std::size_t i = 0; i < half; ++i) {
                chosen.push_back(order[i]);
                taken[order[i]] = true;
            }
            for (std::size_t i = n;
                 i > 0 && chosen.size() < maxGpPoints; --i) {
                if (!taken[i - 1]) {
                    chosen.push_back(i - 1);
                    taken[i - 1] = true;
                }
            }
        }

        std::vector<std::vector<double>> xs;
        std::vector<double> ys;
        xs.reserve(chosen.size());
        ys.reserve(chosen.size());
        for (std::size_t idx : chosen) {
            xs.push_back(trace.points[idx].x);
            ys.push_back(std::isfinite(trace.points[idx].value)
                             ? trace.points[idx].value
                             : penalty);
        }

        {
            const metrics::ScopedTimer fitTimer(bm.fitNs);
            if (iterations_since_refit >= hyperRefitInterval) {
                const metrics::ScopedTimer hyperTimer(bm.hyperNs);
                gp.fitWithHyperSearch(xs, ys);
                iterations_since_refit = 0;
                hyper_known = true;
            } else {
                gp.fit(xs, ys);
            }
        }
        ++iterations_since_refit;

        const bool instrument = metrics::metricsEnabled();
        const std::uint64_t acq_t0 =
            instrument ? metrics::monotonicNowNs() : 0;
        // Acquisition: random + local candidates, take the best EI.
        // Candidates are drawn serially (the rng stream must not
        // depend on the worker count); selectCandidate() solves only
        // those whose EI bound can still win, and its pick equals a
        // full scan's with or without the pool.
        const std::vector<double> incumbent = trace.bestPoint();
        std::vector<std::vector<double>> candidates;
        candidates.reserve(1 + options_.uniformCandidates +
                           options_.localCandidates);
        candidates.push_back(sample_uniform()); // unscored fallback
        for (std::size_t i = 0; i < options_.uniformCandidates; ++i)
            candidates.push_back(sample_uniform());
        if (!incumbent.empty()) {
            for (std::size_t i = 0; i < options_.localCandidates; ++i) {
                std::vector<double> x = incumbent;
                for (std::size_t d = 0; d < dim; ++d) {
                    const double span = hi[d] - lo[d];
                    x[d] = clampd(
                        x[d] + rng.normal(0.0, perturbSigma * span),
                        lo[d], hi[d]);
                }
                candidates.push_back(std::move(x));
            }
        }

        const Acquisition pick =
            selectCandidate(gp, candidates, best_finite, pool);
        bm.candidates.inc(candidates.size() - 1);
        bm.solved.inc(pick.solved);
        bm.refined.inc(pick.refined);
        const std::vector<double> &best_x = candidates[pick.index];
        if (instrument)
            bm.acqNs.observe(metrics::monotonicNowNs() - acq_t0);

        trace.add(best_x, evaluateRecovered(objective, best_x));
        ++iterations;
        maybeSnapshot();
    }
}

} // namespace vaesa
