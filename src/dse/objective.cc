#include "dse/objective.hh"

#include <algorithm>
#include <cmath>
#include <array>
#include <exception>

#include "sched/parallel_evaluator.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/numeric.hh"
#include "util/thread_pool.hh"

namespace vaesa {

namespace {

/**
 * Objective-evaluation instruments. Every search driver funnels
 * candidate scoring through evaluateRecovered(), so counting here
 * covers every driver uniformly, including pool-parallel batches
 * (counters and histograms are safe under concurrent writers).
 */
struct EvalMetrics
{
    metrics::Counter &evals = metrics::counter("search.evals");
    metrics::Counter &invalid =
        metrics::counter("search.eval_invalid");
    metrics::Histogram &evalNs =
        metrics::histogram("search.eval_ns");
};

EvalMetrics &
evalMetrics()
{
    static EvalMetrics m;
    return m;
}

/**
 * The recovery protocol shared by evaluateRecovered() and
 * recoverRawObjective(): two attempts at compute(). Injected faults
 * fire once, so the retry separates transient failures (which succeed
 * on attempt two) from persistent ones (which score invalid). The
 * callers count and time the evaluation.
 */
template <typename Compute>
double
recoverWithRetry(Compute &&compute)
{
    EvalMetrics &em = evalMetrics();
    constexpr int maxAttempts = 2;
    for (int attempt = 1; attempt <= maxAttempts; ++attempt) {
        try {
            faultCheck("eval_throw");
            const double value = faultMaybeNan("eval_nan", compute());
            if (std::isnan(value)) {
                warn("evaluation produced NaN (attempt ", attempt,
                     "/", maxAttempts, ")");
                continue;
            }
            return value;
        } catch (const std::exception &e) {
            warn("evaluation failed: ", e.what(), " (attempt ",
                 attempt, "/", maxAttempts, ")");
        }
    }
    warn("marking candidate invalid after ", maxAttempts,
         " failed evaluations");
    em.invalid.inc();
    return invalidScore;
}

/**
 * Re-apply evaluateRecovered()'s exact semantics to a raw objective
 * value already computed by a deterministic batch pipeline. Valid
 * because the per-point path's retry would recompute the identical
 * value, so replaying the recovery protocol over it preserves
 * bit-identical results and identical fault-site hits. The
 * evaluation's time is @p workNs, the point's share of the batch
 * phase that computed it, not the replay's.
 */
double
recoverRawObjective(double raw, std::uint64_t workNs)
{
    EvalMetrics &em = evalMetrics();
    em.evals.inc();
    if (metrics::metricsEnabled())
        em.evalNs.observe(workNs);
    return recoverWithRetry([raw] { return raw; });
}

} // namespace

double
evaluateRecovered(Objective &objective, const std::vector<double> &x)
{
    EvalMetrics &em = evalMetrics();
    em.evals.inc();
    const metrics::ScopedTimer timer(em.evalNs);
    return recoverWithRetry([&] { return objective.evaluate(x); });
}

std::vector<double>
Objective::evaluateBatch(const std::vector<std::vector<double>> &xs,
                         ThreadPool *pool)
{
    std::vector<double> values(xs.size());
    if (pool && threadSafeEvaluate()) {
        pool->forEachChunk(xs.size(), 1,
                           [&](std::size_t i, std::size_t) {
                               values[i] = evaluateRecovered(*this, xs[i]);
                           });
    } else {
        for (std::size_t i = 0; i < xs.size(); ++i)
            values[i] = evaluateRecovered(*this, xs[i]);
    }
    return values;
}

void
SearchTrace::add(const std::vector<double> &x, double value)
{
    points.push_back({x, value});
}

double
SearchTrace::bestAfter(std::size_t n) const
{
    double best = invalidScore;
    const std::size_t limit = std::min(n, points.size());
    for (std::size_t i = 0; i < limit; ++i)
        best = std::min(best, points[i].value);
    return best;
}

double
SearchTrace::best() const
{
    return bestAfter(points.size());
}

std::vector<double>
SearchTrace::bestPoint() const
{
    double best = invalidScore;
    std::vector<double> arg;
    for (const TracePoint &p : points) {
        if (p.value < best) {
            best = p.value;
            arg = p.x;
        }
    }
    return arg;
}

std::vector<double>
SearchTrace::bestCurve() const
{
    std::vector<double> curve;
    curve.reserve(points.size());
    double best = invalidScore;
    for (const TracePoint &p : points) {
        best = std::min(best, p.value);
        curve.push_back(best);
    }
    return curve;
}

std::size_t
SearchTrace::samplesToReach(double threshold) const
{
    for (std::size_t i = 0; i < points.size(); ++i)
        if (points[i].value <= threshold)
            return i + 1;
    return 0;
}

double
metricValue(const EvalResult &result, Metric metric)
{
    if (!result.valid)
        return invalidScore;
    switch (metric) {
      case Metric::Edp: return result.edp;
      case Metric::Latency: return result.latencyCycles;
      case Metric::Energy: return result.energyPj;
    }
    panic("metricValue: bad metric");
}

const char *
metricName(Metric metric)
{
    switch (metric) {
      case Metric::Edp: return "EDP";
      case Metric::Latency: return "latency";
      case Metric::Energy: return "energy";
    }
    panic("metricName: bad metric");
}

AcceleratorConfig
decodeBoxPoint(const std::vector<double> &x)
{
    if (x.size() != numHwParams)
        panic("decodeBoxPoint: wrong dimensionality");
    const DesignSpace &ds = designSpace();
    std::array<std::int64_t, numHwParams> idx{};
    for (int p = 0; p < numHwParams; ++p) {
        const auto param = static_cast<HwParam>(p);
        const double unit = clampd(x[p], 0.0, 1.0);
        const auto count = static_cast<double>(ds.count(param));
        idx[p] = std::min<std::int64_t>(
            ds.count(param) - 1,
            static_cast<std::int64_t>(
                std::llround(unit * (count - 1.0))));
    }
    return ds.fromIndices(idx);
}

InputSpaceObjective::InputSpaceObjective(const Evaluator &evaluator,
                                         std::vector<LayerShape> layers,
                                         Metric metric)
    : InputSpaceObjective(evaluator,
                          Workload{"", std::move(layers), {}}, metric)
{
}

InputSpaceObjective::InputSpaceObjective(const Evaluator &evaluator,
                                         Workload workload,
                                         Metric metric)
    : InputSpaceObjective(evaluator,
                          TrafficMix{{{std::move(workload), 1.0}}},
                          metric)
{
}

InputSpaceObjective::InputSpaceObjective(const Evaluator &evaluator,
                                         TrafficMix mix, Metric metric)
    : evaluator_(evaluator), mix_(std::move(mix)), metric_(metric)
{
    if (mix_.entries.empty())
        fatal("InputSpaceObjective needs a non-empty mix");
    for (const TrafficEntry &e : mix_.entries) {
        const Workload &w = e.workload;
        if (w.layers.empty())
            fatal("InputSpaceObjective needs at least one layer");
        if (!w.counts.empty() && w.counts.size() != w.layers.size())
            fatal("InputSpaceObjective: counts/layers size mismatch");
        if (!(e.weight > 0.0) || !std::isfinite(e.weight))
            fatal("InputSpaceObjective: non-positive weight for '",
                  w.name, "'");
    }
}

std::size_t
InputSpaceObjective::dim() const
{
    return numHwParams;
}

std::vector<double>
InputSpaceObjective::lowerBounds() const
{
    return std::vector<double>(numHwParams, 0.0);
}

std::vector<double>
InputSpaceObjective::upperBounds() const
{
    return std::vector<double>(numHwParams, 1.0);
}

AcceleratorConfig
InputSpaceObjective::decode(const std::vector<double> &x) const
{
    return decodeBoxPoint(x);
}

double
InputSpaceObjective::evaluate(const std::vector<double> &x)
{
    const AcceleratorConfig config = decode(x);
    double score = 0.0;
    for (const TrafficEntry &entry : mix_.entries) {
        const EvalResult r =
            evaluator_.evaluateWorkload(config, entry.workload);
        if (!r.valid)
            return invalidScore;
        score += entry.weight * metricValue(r, metric_);
    }
    return score;
}

std::vector<double>
InputSpaceObjective::evaluateBatch(
    const std::vector<std::vector<double>> &xs, ThreadPool *pool)
{
    if (!pool || xs.empty())
        return Objective::evaluateBatch(xs, pool);

    // Batch phase: decode every point, then one counted config-batch
    // pass per mix entry, the weighted sum accumulating in entry
    // order on this thread (evaluate()'s association). An invalid
    // workload adds weight * invalidScore, which keeps the sum at
    // invalidScore as evaluate()'s early return does. Any failure
    // here (bad point, pool fault) degrades to the per-point path,
    // whose per-point recovery then isolates the offender instead of
    // losing the whole batch.
    const bool instrument = metrics::metricsEnabled();
    const std::uint64_t batch_t0 =
        instrument ? metrics::monotonicNowNs() : 0;
    std::vector<double> values;
    try {
        std::vector<AcceleratorConfig> configs;
        configs.reserve(xs.size());
        for (const std::vector<double> &x : xs)
            configs.push_back(decode(x));
        values.assign(configs.size(), 0.0);
        for (const TrafficEntry &entry : mix_.entries) {
            const std::vector<EvalResult> results = evaluateConfigBatch(
                evaluator_, configs, entry.workload, *pool);
            for (std::size_t i = 0; i < results.size(); ++i)
                values[i] +=
                    entry.weight * metricValue(results[i], metric_);
        }
    } catch (const std::exception &e) {
        warn("batch evaluation failed: ", e.what(),
             "; retrying point by point");
        return Objective::evaluateBatch(xs, pool);
    }

    // Recovery phase: identical per-point semantics (counters, fault
    // sites, retry) applied in input order; each point's evaluation
    // time is an equal share of the batch phase.
    const std::uint64_t share_ns =
        instrument ? (metrics::monotonicNowNs() - batch_t0) / values.size()
                   : 0;
    for (double &value : values)
        value = recoverRawObjective(value, share_ns);
    return values;
}

} // namespace vaesa
