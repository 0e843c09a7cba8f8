#include "dse/bo.hh"

#include <algorithm>
#include <cmath>
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
    metrics::Histogram &acqNs =
        metrics::histogram("search.bo.acq_ns");
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

} // namespace

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
    BoResumeState resume_state;
    bool resumed = false;
    if (checkpoint && !checkpoint->path.empty() &&
        trace.points.empty()) {
        Expected<SearchSnapshot> snapshot =
            loadSearchSnapshot(checkpoint->path,
                               SearchDriver::BayesOpt);
        if (snapshot) {
            BoResumeState state;
            if (decodeBoState(snapshot.value().payload, state)) {
                trace = std::move(snapshot.value().trace);
                rng.setState(snapshot.value().rng);
                resume_state = state;
                resumed = true;
                inform("resuming BO from '", checkpoint->path,
                       "' at sample ", trace.points.size());
            } else {
                warn("ignoring BO snapshot with corrupt surrogate "
                     "payload");
            }
        } else if (snapshot.error().kind !=
                   LoadError::Kind::OpenFailed) {
            warn("ignoring unusable search snapshot: ",
                 snapshot.error().describe());
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
            std::min(options_.initSamples, samples);
        std::vector<std::vector<double>> xs(warmup);
        for (std::size_t i = 0; i < warmup; ++i)
            xs[i] = sample_uniform();
        const std::vector<double> values =
            objective.evaluateBatch(xs, pool);
        for (std::size_t i = 0; i < warmup; ++i)
            trace.add(xs[i], values[i]);
    }

    GaussianProcess gp(options_.kernel);
    std::size_t iterations_since_refit = options_.hyperRefitInterval;
    bool hyper_known = false;
    if (resumed) {
        iterations_since_refit = static_cast<std::size_t>(
            resume_state.iterationsSinceRefit);
        if (resume_state.hasHyper) {
            gp.setHyper(resume_state.hyper);
            hyper_known = true;
        }
    }

    const std::size_t snapshot_every =
        checkpoint ? std::max<std::size_t>(1, checkpoint->every) : 0;
    std::size_t iterations = 0;
    auto maybeSnapshot = [&]() {
        if (!checkpoint || checkpoint->path.empty() ||
            (iterations % snapshot_every != 0 &&
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
                             options_.invalidPenaltyFactor)
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
        if (n <= options_.maxGpPoints) {
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
            const std::size_t half = options_.maxGpPoints / 2;
            for (std::size_t i = 0; i < half; ++i) {
                chosen.push_back(order[i]);
                taken[order[i]] = true;
            }
            for (std::size_t i = n;
                 i > 0 && chosen.size() < options_.maxGpPoints; --i) {
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
            if (iterations_since_refit >=
                options_.hyperRefitInterval) {
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
        // depend on the worker count) and scored by the GP in batch.
        // A candidate's prediction does not depend on which batch it
        // lands in, so with a pool the scored range is cut into
        // fixed tile-aligned chunks that fan out across workers. The
        // winner scan keeps the first strict EI improvement, so the
        // selected candidate is identical either way.
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
                        x[d] + rng.normal(0.0, options_.perturbSigma *
                                                   span),
                        lo[d], hi[d]);
                }
                candidates.push_back(std::move(x));
            }
        }

        const std::span<const std::vector<double>> scored =
            std::span(candidates).subspan(1);
        std::vector<GaussianProcess::Prediction> preds(scored.size());
        if (pool) {
            constexpr std::size_t chunk = GaussianProcess::predictTile;
            pool->parallelFor(
                (scored.size() + chunk - 1) / chunk,
                [&](std::size_t c) {
                    const std::size_t first = c * chunk;
                    const std::size_t count =
                        std::min(chunk, scored.size() - first);
                    gp.predictBatch(scored.subspan(first, count),
                                    std::span(preds).subspan(first,
                                                             count));
                });
        } else {
            gp.predictBatch(scored, preds);
        }

        std::size_t best_idx = 0;
        double best_ei = -1.0;
        for (std::size_t i = 1; i < candidates.size(); ++i) {
            const double ei =
                expectedImprovement(preds[i - 1], best_finite);
            if (ei > best_ei) {
                best_ei = ei;
                best_idx = i;
            }
        }
        const std::vector<double> &best_x = candidates[best_idx];
        if (instrument)
            bm.acqNs.observe(metrics::monotonicNowNs() - acq_t0);

        trace.add(best_x, evaluateRecovered(objective, best_x));
        ++iterations;
        maybeSnapshot();
    }
}

} // namespace vaesa
