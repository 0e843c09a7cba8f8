/**
 * @file
 * Overhead budget check for the observability layer. Two parts:
 *
 *  1. Microbench: per-op cost of each always-live primitive
 *     (Counter::inc, Gauge::add, Histogram::observe) and of the
 *     disabled gated primitives (metrics::ScopedTimer and
 *     trace::Span with instrumentation off).
 *  2. Macro A/B: a CachingEvaluator batch on resnet50 with
 *     observability disabled vs fully enabled (metrics + tracing).
 *
 * The shipped configuration is "disabled", so the budget that
 * matters is the disabled cost. There is no uninstrumented build to
 * diff against, so the disabled overhead is bounded from the
 * measured per-event cost. On the cache hot path the observability
 * layer adds exactly one Counter::inc per lookup (the global-mirror
 * counter; the per-instance hit/miss counters were plain atomics
 * before and cost the same now), so the bound is
 * (lookups x counter ns) / disabled batch time -- pessimistic, since
 * the microbenched counter cost still includes its loop overhead.
 * The binary exits nonzero when the bound exceeds 2%, so CI fails
 * if instrumentation creeps into a hot path. Results land in
 * bench_out/obs_overhead.csv and BENCH_obs_overhead.json in the
 * working directory (run from the repo root to refresh the checked-in
 * copy).
 *
 * Knobs: VAESA_OBS_BATCH (total configs, default 96),
 *        VAESA_OBS_DISTINCT (distinct configs, default 24),
 *        VAESA_OBS_OPS (microbench iterations, default 2000000).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "studies/common.hh"
#include "sched/caching_evaluator.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"
#include "util/trace.hh"

namespace {

using namespace vaesa;

double
seconds(std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Deterministic batch with duplicates, same shape as par_eval. */
std::vector<AcceleratorConfig>
overlappingBatch(std::size_t count, std::size_t distinct,
                 std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<AcceleratorConfig> pool;
    pool.reserve(distinct);
    for (std::size_t i = 0; i < distinct; ++i)
        pool.push_back(designSpace().randomConfig(rng));
    std::vector<AcceleratorConfig> batch;
    batch.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        batch.push_back(pool[rng.index(distinct)]);
    return batch;
}

/** ns/op of `op` over `iters` runs (the loop itself included). */
template <typename Fn>
double
nsPerOp(std::size_t iters, Fn &&op)
{
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i)
        op(i);
    const auto t1 = std::chrono::steady_clock::now();
    return seconds(t0, t1) * 1e9 / static_cast<double>(iters);
}

/** Time one full batch on a fresh cache (cold, then reused). */
double
batchSeconds(const std::vector<AcceleratorConfig> &batch,
             const Workload &workload)
{
    CachingEvaluator cache;
    const auto t0 = std::chrono::steady_clock::now();
    double sink = 0.0;
    for (const AcceleratorConfig &config : batch)
        sink += cache.evaluateWorkload(config, workload).edp;
    const auto t1 = std::chrono::steady_clock::now();
    // Keep the accumulation observable so the loop cannot be elided.
    if (sink == -1.0)
        std::printf("impossible\n");
    return seconds(t0, t1);
}

} // namespace

int
main()
{
    bench::banner("Observability overhead",
                  "disabled-cost budget for metrics + tracing");

    const auto ops = static_cast<std::size_t>(
        envInt("VAESA_OBS_OPS", 2000000));
    const auto batchSize =
        static_cast<std::size_t>(envInt("VAESA_OBS_BATCH", 96));
    const auto distinct =
        static_cast<std::size_t>(envInt("VAESA_OBS_DISTINCT", 24));

    // --- Part 1: primitive microbench -------------------------------
    metrics::setMetricsEnabled(false);
    trace::setTraceEnabled(false);

    metrics::Counter &counter = metrics::counter("bench.obs.counter");
    metrics::Gauge &gauge = metrics::gauge("bench.obs.gauge");
    metrics::Histogram &hist =
        metrics::histogram("bench.obs.hist");

    const double counter_ns =
        nsPerOp(ops, [&](std::size_t) { counter.inc(); });
    const double gauge_ns =
        nsPerOp(ops, [&](std::size_t) { gauge.add(1.0); });
    const double hist_ns = nsPerOp(
        ops, [&](std::size_t i) {
            hist.observe(static_cast<std::uint64_t>(i));
        });
    const double timer_off_ns = nsPerOp(ops, [&](std::size_t) {
        if (metrics::metricsEnabled())
            hist.observe(metrics::monotonicNowNs());
    });
    const double span_off_ns = nsPerOp(
        ops, [&](std::size_t) { trace::Span span("bench.op"); });

    std::printf("%-28s %12s\n", "primitive (disabled state)",
                "ns/op");
    bench::rule();
    std::printf("%-28s %12.2f\n", "Counter::inc", counter_ns);
    std::printf("%-28s %12.2f\n", "Gauge::add", gauge_ns);
    std::printf("%-28s %12.2f\n", "Histogram::observe", hist_ns);
    std::printf("%-28s %12.2f\n", "gated timer (off)", timer_off_ns);
    std::printf("%-28s %12.2f\n", "trace::Span (off)", span_off_ns);
    const double worst_ns =
        std::max({counter_ns, gauge_ns, hist_ns, timer_off_ns,
                  span_off_ns});

    // --- Part 2: macro A/B on a CachingEvaluator batch --------------
    const Workload resnet = workloadByName("resnet50");
    const std::vector<AcceleratorConfig> batch =
        overlappingBatch(batchSize, distinct, 23);

    batchSeconds(batch, resnet); // warm-up (page in code)
    // Min of several runs: the bound divides by this, so timing
    // noise must not fake an over-budget result.
    double off_sec = batchSeconds(batch, resnet);
    for (int run = 0; run < 4; ++run)
        off_sec = std::min(off_sec,
                           batchSeconds(batch, resnet));

    // Count instrumentation events by running once fully enabled.
    metrics::counter("cache.hit").reset();
    metrics::counter("cache.miss").reset();
    metrics::counter("cache.shard_contention").reset();
    metrics::setMetricsEnabled(true);
    trace::setTraceEnabled(true);
    const double on_sec = batchSeconds(batch, resnet);
    metrics::setMetricsEnabled(false);
    trace::setTraceEnabled(false);

    const double lookups = static_cast<double>(
        metrics::counter("cache.hit").value() +
        metrics::counter("cache.miss").value());
    // Net addition per lookup: the one global-mirror Counter::inc
    // (see the file comment). Gated timers and spans on this path
    // cost span_off_ns/timer_off_ns only at epoch/iteration
    // granularity, far off the per-lookup scale.
    const double overhead_disabled_pct =
        100.0 * lookups * counter_ns * 1e-9 / off_sec;
    const double overhead_enabled_pct =
        100.0 * (on_sec - off_sec) / off_sec;

    bench::rule();
    std::printf("batch: %zu configs (%zu distinct) x %zu layers\n",
                batch.size(), distinct, resnet.layers.size());
    std::printf("disabled: %.3f s; enabled: %.3f s "
                "(%.2f%% measured delta)\n",
                off_sec, on_sec, overhead_enabled_pct);
    std::printf("cache lookups: %.0f; worst primitive %.2f ns\n",
                lookups, worst_ns);
    std::printf("disabled overhead bound: %.4f%% (budget 2%%)\n",
                overhead_disabled_pct);

    CsvWriter csv(bench::csvPath("obs_overhead.csv"));
    csv.header({"counter_ns", "gauge_ns", "hist_ns", "timer_off_ns",
                "span_off_ns", "off_sec", "on_sec",
                "overhead_disabled_pct", "overhead_enabled_pct"});
    csv.row({CsvWriter::cell(counter_ns), CsvWriter::cell(gauge_ns),
             CsvWriter::cell(hist_ns), CsvWriter::cell(timer_off_ns),
             CsvWriter::cell(span_off_ns), CsvWriter::cell(off_sec),
             CsvWriter::cell(on_sec),
             CsvWriter::cell(overhead_disabled_pct),
             CsvWriter::cell(overhead_enabled_pct)});

    const bool within_budget = overhead_disabled_pct <= 2.0;
    char body[1024];
    std::snprintf(
        body, sizeof(body),
        "{\n"
        "  \"bench\": \"obs_overhead\",\n"
        "  \"hw_threads\": %zu,\n"
        "  \"counter_inc_ns\": %.3f,\n"
        "  \"gauge_add_ns\": %.3f,\n"
        "  \"histogram_observe_ns\": %.3f,\n"
        "  \"gated_timer_off_ns\": %.3f,\n"
        "  \"span_off_ns\": %.3f,\n"
        "  \"batch_configs\": %zu,\n"
        "  \"batch_disabled_s\": %.6f,\n"
        "  \"batch_enabled_s\": %.6f,\n"
        "  \"cache_lookups\": %.0f,\n"
        "  \"overhead_disabled_pct\": %.5f,\n"
        "  \"overhead_enabled_pct\": %.3f,\n"
        "  \"budget_pct\": 2.0,\n"
        "  \"within_budget\": %s\n"
        "}\n",
        ThreadPool::hardwareThreadCount(), counter_ns, gauge_ns,
        hist_ns, timer_off_ns, span_off_ns,
        batch.size(), off_sec, on_sec, lookups,
        overhead_disabled_pct, overhead_enabled_pct,
        within_budget ? "true" : "false");
    std::ofstream(bench::csvPath("obs_overhead.json")) << body;
    std::ofstream("BENCH_obs_overhead.json") << body;

    bench::rule();
    std::printf("%s (baseline written to BENCH_obs_overhead.json)\n",
                within_budget ? "within budget"
                              : "OVER BUDGET (>2% disabled cost)");
    return within_budget ? 0 : 1;
}
