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
 * covers random/GA/BO/SA uniformly, including pool-parallel batches
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
 * recoverRawObjective(): count and time one evaluation, then make two
 * attempts at compute(). Injected faults fire once, so the retry
 * separates transient failures (which succeed on attempt two) from
 * persistent ones (which score invalid).
 */
template <typename Compute>
double
recoverWithRetry(Compute &&compute)
{
    EvalMetrics &em = evalMetrics();
    em.evals.inc();
    const metrics::ScopedTimer timer(em.evalNs);
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

} // namespace

double
evaluateRecovered(Objective &objective, const std::vector<double> &x)
{
    return recoverWithRetry([&] { return objective.evaluate(x); });
}

/**
 * Valid to reuse the raw batch value because batch evaluation is
 * deterministic: the per-point path's retry would recompute the
 * identical value, so replaying the recovery protocol over it
 * preserves bit-identical results and identical fault-site hits.
 */
double
recoverRawObjective(double raw)
{
    return recoverWithRetry([raw] { return raw; });
}

std::vector<double>
Objective::evaluateBatch(const std::vector<std::vector<double>> &xs,
                         ThreadPool *pool)
{
    std::vector<double> values(xs.size());
    if (pool && threadSafeEvaluate()) {
        pool->parallelFor(xs.size(), [&](std::size_t i) {
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

std::vector<double>
encodeBoxPoint(const AcceleratorConfig &config)
{
    const DesignSpace &ds = designSpace();
    const auto idx = ds.toIndices(config);
    std::vector<double> x(numHwParams);
    for (int p = 0; p < numHwParams; ++p) {
        const auto param = static_cast<HwParam>(p);
        const auto count = static_cast<double>(ds.count(param));
        x[p] = count > 1.0
                   ? static_cast<double>(idx[p]) / (count - 1.0)
                   : 0.0;
    }
    return x;
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
    : evaluator_(evaluator), workload_(std::move(workload)),
      metric_(metric)
{
    if (workload_.layers.empty())
        fatal("InputSpaceObjective needs at least one layer");
    if (!workload_.counts.empty() &&
        workload_.counts.size() != workload_.layers.size())
        fatal("InputSpaceObjective: counts/layers size mismatch");
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

std::vector<double>
InputSpaceObjective::encode(const AcceleratorConfig &config) const
{
    return encodeBoxPoint(config);
}

double
InputSpaceObjective::evaluate(const std::vector<double> &x)
{
    const AcceleratorConfig config = decode(x);
    return metricValue(evaluator_.evaluateWorkload(config, workload_),
                       metric_);
}

std::vector<double>
InputSpaceObjective::evaluateBatch(
    const std::vector<std::vector<double>> &xs, ThreadPool *pool)
{
    if (!pool || xs.empty())
        return Objective::evaluateBatch(xs, pool);

    // Batch phase: decode + score every point through the SoA
    // pipeline. Any failure here (bad point, pool fault) degrades to
    // the per-point path, whose per-point recovery then isolates the
    // offender instead of losing the whole batch.
    std::vector<double> raw;
    try {
        std::vector<AcceleratorConfig> configs;
        configs.reserve(xs.size());
        for (const std::vector<double> &x : xs)
            configs.push_back(decode(x));
        const std::vector<EvalResult> results =
            evaluateConfigBatch(evaluator_, configs, workload_,
                                *pool);
        raw.reserve(results.size());
        for (const EvalResult &r : results)
            raw.push_back(metricValue(r, metric_));
    } catch (const std::exception &e) {
        warn("batch evaluation failed: ", e.what(),
             "; retrying point by point");
        return Objective::evaluateBatch(xs, pool);
    }

    // Recovery phase: identical per-point semantics (counters,
    // timers, fault sites, retry) applied in input order.
    std::vector<double> values(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i)
        values[i] = recoverRawObjective(raw[i]);
    return values;
}

} // namespace vaesa
