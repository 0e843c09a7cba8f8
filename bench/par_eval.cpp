/**
 * @file
 * Throughput gate for the batch evaluation pipeline: scores one
 * large overlapping config batch on resnet50 through the SAME path
 * the search drivers use — serially per config on a plain Evaluator
 * (the pre-batch driver loop) versus evaluateConfigBatch() at
 * 1/2/4/8 threads (dedup + work-stealing chunks) — and FAILS
 * (nonzero exit) when the 8-thread batch path does not clear the
 * target speedup or any width diverges from the serial values
 * bit-for-bit. The cached path (evaluateCachedBatch) is measured and
 * reported alongside for context, not gated: its serial baseline
 * already amortizes repeats through the cache.
 *
 * speedup_at_8 is the batch path at 8 pool workers against the serial
 * loop, NOT thread scaling: most of it is within-batch dedup, which
 * pays off on one core too. The host's hardware
 * thread count (hw_threads) is recorded next to it. The calling
 * thread scores chunks beside the pool, so a row of N workers
 * computes on N + 1 threads (compute_threads; the default batch has
 * more chunks than workers at every width); on a host with fewer
 * hardware threads than that the row is oversubscribed.
 *
 * Knobs: VAESA_PAR_BATCH (total configs, default 12288),
 *        VAESA_PAR_DISTINCT (distinct configs, default 1024),
 *        VAESA_PAR_TARGET (gated 8-thread speedup, default 6.0).
 *
 * Outputs: bench_out/par_eval.csv, bench_out/par_eval.json, and
 * BENCH_par_eval.json, all under the working directory (run from the
 * repo root to refresh the checked-in snapshot).
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "studies/common.hh"
#include "sched/parallel_evaluator.hh"
#include "util/env.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace {

using namespace vaesa;

/** Deterministic batch with duplicates, mirroring a driver batch
 *  where many candidates decode to the same grid point. */
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

double
seconds(std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

bool
bitIdentical(const std::vector<EvalResult> &a,
             const std::vector<EvalResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].valid != b[i].valid ||
            a[i].latencyCycles != b[i].latencyCycles ||
            a[i].energyPj != b[i].energyPj || a[i].edp != b[i].edp)
            return false;
    return true;
}

struct Row
{
    const char *path;
    std::size_t threads;
    double sec;
    double speedup;
    bool identical;
};

} // namespace

int
main()
{
    bench::banner("Parallel evaluation",
                  "driver-path serial vs batch pipeline on resnet50");

    const auto batchSize = static_cast<std::size_t>(
        envInt("VAESA_PAR_BATCH", 12288));
    const auto distinct = static_cast<std::size_t>(
        envInt("VAESA_PAR_DISTINCT", 1024));
    const double target = envDouble("VAESA_PAR_TARGET", 6.0);
    const std::size_t hwThreads = ThreadPool::hardwareThreadCount();
    const Workload resnet = workloadByName("resnet50");
    const std::vector<AcceleratorConfig> batch =
        overlappingBatch(batchSize, distinct, 17);

    // GATED baseline: the pre-batch driver loop — one uncached
    // evaluateWorkload() per config, repeats and all. This is what
    // random/BO warm-up actually cost before batch routing.
    Evaluator plain;
    const auto u0 = std::chrono::steady_clock::now();
    std::vector<EvalResult> serial;
    serial.reserve(batch.size());
    for (const AcceleratorConfig &config : batch)
        serial.push_back(plain.evaluateWorkload(config, resnet.layers));
    const auto u1 = std::chrono::steady_clock::now();
    const double serialSec = seconds(u0, u1);

    // Context baseline: the same loop through a warm-capable cache.
    CachingEvaluator serialCache;
    const auto c0 = std::chrono::steady_clock::now();
    std::vector<EvalResult> cachedSerial;
    cachedSerial.reserve(batch.size());
    for (const AcceleratorConfig &config : batch)
        cachedSerial.push_back(
            serialCache.evaluateWorkload(config, resnet));
    const auto c1 = std::chrono::steady_clock::now();
    const double cachedSec = seconds(c0, c1);
    const double cachedHitRate =
        static_cast<double>(serialCache.hits()) /
        static_cast<double>(serialCache.hits() +
                            serialCache.misses());

    std::printf("batch: %zu configs (%zu distinct) x %zu layers; "
                "host hw_threads %zu\n",
                batch.size(), distinct, resnet.layers.size(),
                hwThreads);
    std::printf("serial driver loop (uncached): %.3f s "
                "(%.1f configs/s) <- gated baseline\n",
                serialSec,
                static_cast<double>(batch.size()) / serialSec);
    std::printf("serial cached loop:            %.3f s "
                "(hit rate %.3f, reported only)\n",
                cachedSec, cachedHitRate);
    bench::rule();
    std::printf("%14s %8s %8s %10s %9s %14s\n", "path", "threads",
                "compute", "time_s", "speedup", "bit_identical");

    std::vector<Row> rows;
    bool allIdentical = true;
    double speedupAt8 = 0.0;

    // The driver batch path: uncached evaluateConfigBatch, exactly
    // what InputSpaceObjective::evaluateBatch runs underneath.
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        ThreadPool pool(threads);
        const auto t0 = std::chrono::steady_clock::now();
        const std::vector<EvalResult> got =
            evaluateConfigBatch(plain, batch, resnet, pool);
        const auto t1 = std::chrono::steady_clock::now();
        const double sec = seconds(t0, t1);
        const double speedup = serialSec / sec;
        const bool identical = bitIdentical(got, serial);
        allIdentical = allIdentical && identical;
        if (threads == 8)
            speedupAt8 = speedup;
        rows.push_back({"batch", threads, sec, speedup, identical});
        std::printf("%14s %8zu %8zu %10.3f %9.2f %14s\n", "batch",
                    threads, threads + 1, sec, speedup,
                    identical ? "yes" : "NO");
    }

    // Context: the cached batch path (search loops that revisit
    // configs). Speedup is against the CACHED serial loop.
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        CachingEvaluator cache;
        ThreadPool pool(threads);
        const auto t0 = std::chrono::steady_clock::now();
        const std::vector<EvalResult> got =
            evaluateCachedBatch(cache, batch, resnet, pool);
        const auto t1 = std::chrono::steady_clock::now();
        const double sec = seconds(t0, t1);
        const double speedup = cachedSec / sec;
        const bool identical = bitIdentical(got, serial);
        allIdentical = allIdentical && identical;
        rows.push_back(
            {"batch_cached", threads, sec, speedup, identical});
        std::printf("%14s %8zu %8zu %10.3f %9.2f %14s\n",
                    "batch_cached", threads, threads + 1, sec, speedup,
                    identical ? "yes" : "NO");
    }

    CsvWriter csv(bench::csvPath("par_eval.csv"));
    csv.header({"path", "threads", "compute_threads", "time_s",
                "speedup", "bit_identical"});
    std::string rowsJson;
    for (const Row &row : rows) {
        csv.row({row.path, std::to_string(row.threads),
                 std::to_string(row.threads + 1),
                 CsvWriter::cell(row.sec), CsvWriter::cell(row.speedup),
                 row.identical ? "1" : "0"});
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "    {\"path\": \"%s\", \"threads\": %zu, "
                      "\"compute_threads\": %zu, "
                      "\"time_s\": %.6f, \"speedup\": %.3f, "
                      "\"bit_identical\": %s}",
                      row.path, row.threads, row.threads + 1,
                      row.sec, row.speedup,
                      row.identical ? "true" : "false");
        rowsJson += (rowsJson.empty() ? "" : ",\n");
        rowsJson += buf;
    }

    const bool meetsTarget = speedupAt8 >= target;
    std::ostringstream json;
    json << "{\n"
         << "  \"bench\": \"par_eval\",\n"
         << "  \"workload\": \"resnet50\",\n"
         << "  \"batch_configs\": " << batch.size() << ",\n"
         << "  \"distinct_configs\": " << distinct << ",\n"
         << "  \"layers\": " << resnet.layers.size() << ",\n"
         << "  \"hw_threads\": " << hwThreads << ",\n"
         << "  \"serial_uncached_time_s\": " << serialSec << ",\n"
         << "  \"serial_cached_time_s\": " << cachedSec << ",\n"
         << "  \"serial_cached_hit_rate\": " << cachedHitRate << ",\n"
         << "  \"target_speedup_at_8\": " << target << ",\n"
         << "  \"speedup_at_8\": " << speedupAt8 << ",\n"
         << "  \"speedup_at_8_is\": \"batch path (dedup + "
            "work-stealing chunks) at 8 pool workers plus the calling "
            "thread vs the serial uncached loop; not thread "
            "scaling\",\n"
         << "  \"meets_target\": "
         << (meetsTarget ? "true" : "false") << ",\n"
         << "  \"all_bit_identical\": "
         << (allIdentical ? "true" : "false") << ",\n"
         << "  \"runs\": [\n"
         << rowsJson << "\n  ]\n}\n";
    std::ofstream(bench::csvPath("par_eval.json")) << json.str();
    std::ofstream("BENCH_par_eval.json") << json.str();

    bench::rule();
    std::printf("batch path at 8 workers vs serial loop %.2fx (not "
                "thread scaling; host hw_threads %zu) vs %.2fx target: "
                "%s; results %s\n",
                speedupAt8, hwThreads, target,
                meetsTarget ? "PASS" : "FAIL",
                allIdentical ? "bit-identical at every width"
                             : "DIVERGED (bug!)");
    return (meetsTarget && allIdentical) ? 0 : 1;
}
