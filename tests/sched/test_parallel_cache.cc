/**
 * @file
 * Concurrency stress tests for the sharded CachingEvaluator: many
 * threads hammering one instance on overlapping keys. Run under the
 * `tsan` preset (see docs/STATIC_ANALYSIS.md) these machine-check
 * the locking contract; in any build they check that results and
 * counters stay exact under contention.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <map>
#include <stdexcept>
#include <vector>

#include "../common/held_worker.hh"
#include "sched/caching_evaluator.hh"
#include "sched/parallel_evaluator.hh"
#include "util/fault.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"
#include "workload/networks.hh"

namespace vaesa {
namespace {

/** Deterministic batch of configs with heavy key overlap. */
std::vector<AcceleratorConfig>
overlappingConfigs(std::size_t count, std::size_t distinct,
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

/**
 * resnet50 with layer @p k made unmappable (zero output channels), a
 * config that maps every real layer, and what a walk that stops at
 * layer k sees: the layers it looks up (k + 1) and the distinct
 * shapes among them, which it computes. No grid config stops mid-way
 * through the real network (every config maps all 24 layers or none),
 * so the dead layer stands in for one.
 */
struct StopsMidResnet
{
    std::vector<LayerShape> layers;
    AcceleratorConfig config;
    std::size_t walked = 0;
    std::size_t distinct = 0;
};

/** Distinct shapes among layers [0, end). */
std::size_t
distinctShapes(const std::vector<LayerShape> &layers, std::size_t end)
{
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < end; ++i) {
        std::size_t first = 0;
        while (!layers[first].sameShape(layers[i]))
            ++first;
        distinct += first == i;
    }
    return distinct;
}

StopsMidResnet
resnetStoppingAt(std::size_t k)
{
    StopsMidResnet s;
    s.layers = resNet50Layers();
    s.layers[k].k = 0;
    s.config.numPes = 16;
    s.config.numMacs = 1024;
    s.config.accumBufBytes = 48 * 1024;
    s.config.weightBufBytes = 1024 * 1024;
    s.config.inputBufBytes = 64 * 1024;
    s.config.globalBufBytes = 128 * 1024;
    s.walked = k + 1;
    s.distinct = distinctShapes(s.layers, k + 1);
    return s;
}

void
expectInvalid(const EvalResult &r)
{
    EXPECT_FALSE(r.valid);
    EXPECT_EQ(r.latencyCycles, 0.0);
    EXPECT_EQ(r.energyPj, 0.0);
    EXPECT_EQ(r.edp, 0.0);
}

TEST(ParallelCache, ServeWalkStopsAtFirstInvalidLayer)
{
    // CachingEvaluator::evaluateWorkload looks up layers [0, k] only,
    // computes each distinct shape among them once, and counts those
    // as its evaluations; a warm repeat is all hits.
    const StopsMidResnet s = resnetStoppingAt(12);
    const std::vector<LayerShape> real = resNet50Layers();
    ASSERT_TRUE(Evaluator().evaluateWorkload(s.config, real).valid);
    CachingEvaluator cached;
    expectInvalid(cached.evaluateWorkload(s.config, {"", s.layers, {}}));
    EXPECT_EQ(cached.misses(), s.distinct);
    EXPECT_EQ(cached.hits(), s.walked - s.distinct);
    EXPECT_EQ(cached.inner().evaluationCount(), s.distinct);

    expectInvalid(cached.evaluateWorkload(s.config, {"", s.layers, {}}));
    EXPECT_EQ(cached.misses(), s.distinct);
    EXPECT_EQ(cached.hits(), 2 * s.walked - s.distinct);
    EXPECT_EQ(cached.inner().evaluationCount(), s.distinct);

    // The layers past the dead one were never cached.
    const std::vector<LayerShape> after(real.begin() + 13, real.end());
    EXPECT_TRUE(cached.evaluateWorkload(s.config, {"", after, {}}).valid);
    EXPECT_EQ(cached.misses(),
              s.distinct + distinctShapes(after, after.size()));
}

TEST(ParallelCache, BatchWalkStopsAtFirstInvalidLayer)
{
    // evaluateCachedBatch's row walk stops at the same layer: the
    // stopping config, twice, beside one that the plain evaluator
    // walks to the same stop. Each input copy books its walk; only
    // distinct (config, shape) cells are computed, once each.
    const StopsMidResnet s = resnetStoppingAt(12);
    AcceleratorConfig other = s.config;
    other.numPes = 32;
    other.numMacs = 2048;
    const Workload workload{"resnet50", s.layers, {}};
    ASSERT_FALSE(Evaluator().evaluateWorkload(other, s.layers).valid);

    for (const std::size_t width : {1, 4}) {
        SCOPED_TRACE(::testing::Message() << "width=" << width);
        CachingEvaluator cached;
        ThreadPool pool(width);
        const std::vector<EvalResult> got = evaluateCachedBatch(
            cached, {s.config, other, s.config}, workload, pool);
        ASSERT_EQ(got.size(), 3u);
        for (const EvalResult &r : got)
            expectInvalid(r);
        EXPECT_EQ(cached.misses(), 2 * s.distinct);
        EXPECT_EQ(cached.hits() + cached.misses(), 3 * s.walked);
        EXPECT_EQ(cached.inner().evaluationCount(), 2 * s.distinct);

        // A warm repeat computes nothing.
        for (const EvalResult &r : evaluateCachedBatch(
                 cached, {other, s.config}, workload, pool))
            expectInvalid(r);
        EXPECT_EQ(cached.misses(), 2 * s.distinct);
        EXPECT_EQ(cached.hits() + cached.misses(), 5 * s.walked);
        EXPECT_EQ(cached.inner().evaluationCount(), 2 * s.distinct);
    }
}

TEST(ParallelCache, StressOverlappingKeysMatchesSerial)
{
    const auto layers = resNet50Layers();
    const std::vector<AcceleratorConfig> batch =
        overlappingConfigs(256, 24, 11);
    const std::size_t layersUsed = 6;

    // Serial reference on a plain evaluator.
    Evaluator plain;
    std::vector<std::vector<EvalResult>> expected(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        for (std::size_t l = 0; l < layersUsed; ++l)
            expected[i].push_back(
                plain.evaluateLayer(batch[i], layers[l]));

    // 8 workers hammer one shared cache on the same (config, layer)
    // pairs; every thread must observe the exact serial values.
    CachingEvaluator cached;
    ThreadPool pool(8);
    std::vector<std::vector<EvalResult>> got(batch.size());
    pool.forEachChunk(batch.size(), 1, [&](std::size_t i, std::size_t) {
        for (std::size_t l = 0; l < layersUsed; ++l)
            got[i].push_back(
                cached.evaluateWorkload(batch[i], {"", {layers[l]}, {}}));
    });

    for (std::size_t i = 0; i < batch.size(); ++i) {
        for (std::size_t l = 0; l < layersUsed; ++l) {
            EXPECT_EQ(got[i][l].valid, expected[i][l].valid);
            EXPECT_EQ(got[i][l].latencyCycles,
                      expected[i][l].latencyCycles);
            EXPECT_EQ(got[i][l].energyPj, expected[i][l].energyPj);
            EXPECT_EQ(got[i][l].edp, expected[i][l].edp);
        }
    }

    // Counter exactness: every lookup is either a hit or a miss
    // (misses count evaluations, which under a same-key race can
    // exceed distinct keys but never the total), and the inner
    // evaluation count equals the miss count.
    EXPECT_EQ(cached.hits() + cached.misses(),
              batch.size() * layersUsed);
    EXPECT_GE(cached.misses(), 24u); // >= distinct (config, layer)s
    EXPECT_LE(cached.misses(), batch.size() * layersUsed);
    EXPECT_EQ(cached.inner().evaluationCount(), cached.misses());
}

TEST(ParallelCache, ConcurrentLayerRegistrationIsConsistent)
{
    // Many threads race to register the same 24 layer shapes while
    // evaluating one fixed config. The registry must end up with one
    // id per distinct shape: a fully warmed cache turns a second
    // sweep into pure hits.
    const auto layers = resNet50Layers();
    CachingEvaluator cached;
    ThreadPool pool(8);
    Rng rng(3);
    const AcceleratorConfig config = designSpace().randomConfig(rng);

    pool.forEachChunk(8 * layers.size(), 1, [&](std::size_t i, std::size_t) {
        cached.evaluateWorkload(config, {"", {layers[i % layers.size()]}, {}});
    });
    EXPECT_EQ(cached.hits() + cached.misses(), 8 * layers.size());

    const std::uint64_t missesAfterWarm = cached.misses();
    pool.forEachChunk(8 * layers.size(), 1, [&](std::size_t i, std::size_t) {
        cached.evaluateWorkload(config, {"", {layers[i % layers.size()]}, {}});
    });
    // Second sweep: zero new misses — every shape resolved to the
    // id registered in the first sweep.
    EXPECT_EQ(cached.misses(), missesAfterWarm);
}

TEST(ParallelCache, ConcurrentHitsAndMissesInterleave)
{
    // Warm half the keys serially, then hammer hits and misses
    // together from 8 threads; totals must stay exact.
    const auto layers = alexNetLayers();
    const std::vector<AcceleratorConfig> batch =
        overlappingConfigs(64, 16, 21);
    CachingEvaluator cached;
    for (std::size_t i = 0; i < batch.size(); i += 2)
        cached.evaluateWorkload(batch[i], {"", {layers[0]}, {}});
    const std::uint64_t warmLookups = cached.hits() + cached.misses();

    ThreadPool pool(8);
    pool.forEachChunk(batch.size(), 1, [&](std::size_t i, std::size_t) {
        cached.evaluateWorkload(batch[i], {"", {layers[0]}, {}});
    });
    EXPECT_EQ(cached.hits() + cached.misses(),
              warmLookups + batch.size());
    EXPECT_EQ(cached.inner().evaluationCount(), cached.misses());
}

TEST(ParallelCache, ChunkedBatchStressMatchesSerialCounters)
{
    // The batch pipeline (probe once per shard, dedup, work-stealing
    // chunks, merge + account at batch end) must land on EXACTLY the
    // serial cache's counters, not just the same values: accountBatch
    // books hits = lookups - misses, and the alive mask reproduces
    // the per-config early exit, so a lost or double-counted chunk
    // shows up here as a counter drift.
    const auto allLayers = resNet50Layers();
    const std::vector<LayerShape> layers(allLayers.begin(),
                                         allLayers.begin() + 8);
    const std::vector<AcceleratorConfig> batch =
        overlappingConfigs(1024, 32, 31);

    // Serial reference: one cached evaluator, one config at a time.
    CachingEvaluator serialCache;
    std::vector<EvalResult> expected;
    expected.reserve(batch.size());
    for (const AcceleratorConfig &config : batch)
        expected.push_back(
            serialCache.evaluateWorkload(config, {"", layers, {}}));

    // 8 workers, chunked work stealing through a fresh cache.
    CachingEvaluator cache;
    ThreadPool pool(8);
    const std::vector<EvalResult> got =
        evaluateCachedBatch(cache, batch, {"", layers, {}}, pool);

    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].valid, expected[i].valid) << "config " << i;
        EXPECT_EQ(got[i].latencyCycles, expected[i].latencyCycles);
        EXPECT_EQ(got[i].energyPj, expected[i].energyPj);
        EXPECT_EQ(got[i].edp, expected[i].edp);
    }

    // No lost or duplicated hit/miss counts: exact parity with the
    // serial cache, and misses still count inner evaluations 1:1.
    EXPECT_EQ(cache.hits() + cache.misses(),
              serialCache.hits() + serialCache.misses());
    EXPECT_EQ(cache.misses(), serialCache.misses());
    EXPECT_EQ(cache.inner().evaluationCount(), cache.misses());

    // A second pass over the same batch is pure hits.
    const std::uint64_t warmMisses = cache.misses();
    const std::vector<EvalResult> again =
        evaluateCachedBatch(cache, batch, {"", layers, {}}, pool);
    EXPECT_EQ(cache.misses(), warmMisses);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(again[i].edp, got[i].edp);
}

TEST(ParallelCache, ContentionMetricIsMonotoneAcrossBatches)
{
    // cache.shard_contention only ever accumulates while 8 threads
    // hammer one cache: each batch round may add queueing events but
    // can never reclaim them. The counter is observed only (perfbench
    // reads it); it does not size the cache.
    const auto layers = alexNetLayers();
    const std::vector<AcceleratorConfig> batch =
        overlappingConfigs(512, 8, 41);

    CachingEvaluator cache;
    ThreadPool pool(8);

    metrics::Counter &global =
        metrics::counter("cache.shard_contention");
    std::uint64_t prevGlobal = global.value();
    for (int round = 0; round < 4; ++round) {
        evaluateCachedBatch(cache, batch, {"", layers, {}}, pool);
        EXPECT_GE(global.value(), prevGlobal) << "round " << round;
        prevGlobal = global.value();
    }
}

TEST(ParallelCache, ShardCountIsFixedForTheInstanceLifetime)
{
    // 4 shards per default pool thread, at least 16, rounded up to a
    // power of two; contended batches never resize it.
    const std::size_t want =
        std::max<std::size_t>(16, 4 * ThreadPool::defaultThreadCount());
    CachingEvaluator cache;
    const std::size_t shards = cache.shardCount();
    EXPECT_GE(shards, want);
    EXPECT_LT(shards, 2 * want);
    EXPECT_EQ(shards & (shards - 1), 0u);

    ThreadPool pool(8);
    evaluateCachedBatch(cache, overlappingConfigs(512, 8, 43),
                        {"", alexNetLayers(), {}}, pool);
    EXPECT_EQ(cache.shardCount(), shards);
}

TEST(ParallelCache, KillMidBatchIsAllOrNothing)
{
    // Small batch: n <= chunk runs on the calling thread with one
    // fault checkpoint BEFORE any evaluation. The same injection is
    // reachable in production via VAESA_FAULT=batch_chunk:1; tests
    // arm programmatically for isolation.
    FaultInjector::instance().reset();
    const auto layers = alexNetLayers();
    const std::vector<AcceleratorConfig> batch =
        overlappingConfigs(8, 4, 51);

    CachingEvaluator cache;
    ThreadPool pool(4);

    FaultInjector::instance().arm("batch_chunk", 1);
    EXPECT_THROW(
        evaluateCachedBatch(cache, batch, {"", {layers[0]}, {}}, pool),
        InjectedFault);
    EXPECT_EQ(FaultInjector::instance().hitCount("batch_chunk"), 1u);

    // All-or-nothing: the failed batch left no trace at all.
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.inner().evaluationCount(), 0u);

    // The fault fired once; the retry runs clean and must produce
    // the exact serial values, with misses proving the cache was
    // not pre-polluted by the killed batch.
    const std::vector<EvalResult> got =
        evaluateCachedBatch(cache, batch, {"", {layers[0]}, {}}, pool);
    CachingEvaluator serialCache;
    std::uint64_t distinct = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const EvalResult expected =
            serialCache.evaluateWorkload(batch[i], {"", {layers[0]}, {}});
        EXPECT_EQ(got[i].valid, expected.valid);
        EXPECT_EQ(got[i].latencyCycles, expected.latencyCycles);
        EXPECT_EQ(got[i].energyPj, expected.energyPj);
    }
    distinct = serialCache.misses();
    EXPECT_EQ(cache.misses(), distinct);
    EXPECT_EQ(cache.inner().evaluationCount(), cache.misses());
    FaultInjector::instance().reset();
}

TEST(ParallelCache, KillMidChunkedBatchNeverPollutesTheCache)
{
    // Large batch across 8 threads: the fault fires at the SECOND
    // chunk claim, so some chunks are already computing when the
    // batch dies. Computed work may be wasted (the inner evaluation
    // counter can advance) but the merge and accounting are skipped
    // wholesale: the cache keeps zero entries and zero lookups from
    // the failed batch.
    FaultInjector::instance().reset();
    const auto layers = resNet50Layers();
    const std::vector<AcceleratorConfig> batch =
        overlappingConfigs(512, 16, 61);

    CachingEvaluator cache;
    ThreadPool pool(8);

    FaultInjector::instance().arm("batch_chunk", 2);
    EXPECT_THROW(
        evaluateCachedBatch(cache, batch, {"", {layers[1]}, {}}, pool),
        InjectedFault);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);

    // Retry: bit-identical to serial, and the miss count equals the
    // distinct snapped keys — nothing from the killed batch was
    // inserted.
    const std::vector<EvalResult> got =
        evaluateCachedBatch(cache, batch, {"", {layers[1]}, {}}, pool);
    CachingEvaluator serialCache;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const EvalResult expected =
            serialCache.evaluateWorkload(batch[i], {"", {layers[1]}, {}});
        EXPECT_EQ(got[i].valid, expected.valid);
        EXPECT_EQ(got[i].latencyCycles, expected.latencyCycles);
        EXPECT_EQ(got[i].energyPj, expected.energyPj);
        EXPECT_EQ(got[i].edp, expected.edp);
    }
    EXPECT_EQ(cache.misses(), serialCache.misses());
    EXPECT_EQ(cache.hits() + cache.misses(),
              serialCache.hits() + serialCache.misses());
    FaultInjector::instance().reset();
}

TEST(ParallelCache, CancelledBatchIsAllOrNothing)
{
    // An expired deadline takes the same exit as an injected fault:
    // the token is checked at every chunk claim, the batch throws
    // DeadlineExceeded, and the cache keeps no entry and no lookup
    // from it. The retry then books exactly the serial loop's hits
    // and misses, which it could not if anything had leaked in.
    const auto allLayers = resNet50Layers();
    const std::vector<LayerShape> layers(allLayers.begin(),
                                         allLayers.begin() + 6);
    const std::vector<AcceleratorConfig> batch =
        overlappingConfigs(512, 48, 71);

    CachingEvaluator cache;
    ThreadPool pool(8);
    CancelToken expired;
    expired.cancel();
    EXPECT_THROW(evaluateCachedBatch(cache, batch, {"", layers, {}},
                                     pool, &expired),
                 DeadlineExceeded);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);

    const std::vector<EvalResult> got =
        evaluateCachedBatch(cache, batch, {"", layers, {}}, pool);
    CachingEvaluator serialCache;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const EvalResult expected =
            serialCache.evaluateWorkload(batch[i], {"", layers, {}});
        EXPECT_EQ(got[i].valid, expected.valid);
        EXPECT_EQ(got[i].latencyCycles, expected.latencyCycles);
        EXPECT_EQ(got[i].energyPj, expected.energyPj);
        EXPECT_EQ(got[i].edp, expected.edp);
    }
    EXPECT_EQ(cache.hits(), serialCache.hits());
    EXPECT_EQ(cache.misses(), serialCache.misses());
}

TEST(ParallelCache, ScalarAndBatchCallersShareOneCache)
{
    // The daemon runs ScoreConfig (evaluateWorkload) and SearchK
    // (evaluateCachedBatch, on a second pool) over one cache. Four
    // callers interleave both entry points on overlapping windows of
    // configs and a workload with a repeated shape: every result must
    // match a plain Evaluator bit for bit, every layer walked must be
    // booked once as a hit or a miss, and every miss must be one inner
    // evaluation.
    const std::vector<LayerShape> resnet = resNet50Layers();
    std::vector<LayerShape> layers(resnet.begin(), resnet.begin() + 6);
    layers.push_back(resnet[2]);
    const Workload workload{"mixed", layers, {}};
    const std::vector<AcceleratorConfig> configs =
        overlappingConfigs(96, 12, 81);

    // Plain reference values and walk lengths (up to and including
    // the first invalid layer).
    Evaluator plain;
    std::vector<EvalResult> expected;
    std::vector<std::size_t> walkOf;
    for (const AcceleratorConfig &config : configs) {
        expected.push_back(plain.evaluateWorkload(config, layers));
        std::size_t walked = 0;
        while (walked < layers.size()) {
            if (!plain.evaluateLayer(config, layers[walked++]).valid)
                break;
        }
        walkOf.push_back(walked);
    }
    ASSERT_TRUE(std::any_of(expected.begin(), expected.end(),
                            [](const EvalResult &r) { return r.valid; }));

    constexpr std::size_t callers = 4;
    constexpr std::size_t rounds = 6;
    constexpr std::size_t window = 8;
    CachingEvaluator cache;
    ThreadPool callerPool(callers);
    ThreadPool batchPool(2);
    std::vector<std::vector<std::pair<std::size_t, EvalResult>>> got(
        callers);
    callerPool.forEachChunk(callers, 1, [&](std::size_t t, std::size_t) {
        for (std::size_t r = 0; r < rounds; ++r) {
            const std::size_t begin =
                (5 * t + window * r) % (configs.size() - window);
            if ((t + r) % 2 == 0) {
                for (std::size_t i = begin; i < begin + window; ++i)
                    got[t].emplace_back(
                        i, cache.evaluateWorkload(configs[i], workload));
                continue;
            }
            const std::vector<AcceleratorConfig> slice(
                configs.begin() + begin,
                configs.begin() + begin + window);
            const std::vector<EvalResult> results =
                evaluateCachedBatch(cache, slice, workload, batchPool);
            for (std::size_t i = 0; i < window; ++i)
                got[t].emplace_back(begin + i, results[i]);
        }
    });

    std::uint64_t walked = 0;
    for (const auto &calls : got) {
        ASSERT_EQ(calls.size(), rounds * window);
        for (const auto &[i, r] : calls) {
            EXPECT_EQ(r.valid, expected[i].valid) << "config " << i;
            EXPECT_EQ(r.latencyCycles, expected[i].latencyCycles);
            EXPECT_EQ(r.energyPj, expected[i].energyPj);
            EXPECT_EQ(r.edp, expected[i].edp);
            walked += walkOf[i];
        }
    }
    EXPECT_EQ(cache.hits() + cache.misses(), walked);
    EXPECT_EQ(cache.misses(), cache.inner().evaluationCount());
}

/** A multi-chunk cached batch: resnet50's first six layers. */
struct HeldBatch
{
    Workload workload;
    std::vector<AcceleratorConfig> configs;
};

HeldBatch
heldBatch()
{
    const std::vector<LayerShape> resnet = resNet50Layers();
    return {{"", {resnet.begin(), resnet.begin() + 6}, {}},
            overlappingConfigs(128, 64, 113)};
}

/**
 * Run heldBatch() through @p cache on a one-worker pool whose worker
 * is held, so the calling thread makes the first claim. The
 * "batch_chunk" site is armed at @p nth; once it has counted
 * @p claims hits the worker is freed. The batch's exception is
 * rethrown from here.
 */
void
runWithHeldWorker(const CachingEvaluator &cache, std::uint64_t nth,
                  std::uint64_t claims, const CancelToken *cancel)
{
    const HeldBatch batch = heldBatch();
    FaultInjector &faults = FaultInjector::instance();
    faults.reset();
    faults.arm("batch_chunk", nth);
    ThreadPool pool(1);
    ThreadPool callerPool(1);
    testing::HeldWorker held(pool);
    std::future<void> done = callerPool.submit([&] {
        evaluateCachedBatch(cache, batch.configs, batch.workload, pool,
                            cancel);
    });
    EXPECT_TRUE(testing::eventually(
        [&] { return faults.hitCount("batch_chunk") >= claims; }));
    held.release();
    done.get();
}

TEST(ParallelCache, FaultOnTheCallersClaimLeavesTheCacheUntouched)
{
    // The fault fires at the first claim, which is the caller's (the
    // worker is held). The caller's loop stops there; once freed, the
    // queued task claims every other chunk, so the killed batch makes
    // as many claims as a clean one. The caller's fault is rethrown
    // only after that task returned, and nothing is merged.
    FaultInjector &faults = FaultInjector::instance();
    CachingEvaluator cache;
    EXPECT_THROW(runWithHeldWorker(cache, 1, 1, nullptr), InjectedFault);
    const std::uint64_t killedClaims = faults.hitCount("batch_chunk");
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);

    faults.arm("batch_chunk", 1u << 30);
    const HeldBatch batch = heldBatch();
    ThreadPool pool(1);
    CachingEvaluator clean;
    evaluateCachedBatch(clean, batch.configs, batch.workload, pool);
    EXPECT_GT(faults.hitCount("batch_chunk"), 1u);
    EXPECT_EQ(killedClaims, faults.hitCount("batch_chunk"));
    faults.reset();
}

TEST(ParallelCache, ExpiredTokenOnTheCallersClaimLeavesTheCacheUntouched)
{
    // With an expired token every claim throws: the caller's first
    // claim (the worker is held; the site, armed out of reach, only
    // counts claims), then the queued task's first once freed.
    // Exactly one claim per loop, nothing scored, nothing merged.
    CachingEvaluator cache;
    CancelToken expired;
    expired.cancel();
    EXPECT_THROW(runWithHeldWorker(cache, 1u << 30, 1, &expired),
                 DeadlineExceeded);
    EXPECT_EQ(FaultInjector::instance().hitCount("batch_chunk"), 2u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.inner().evaluationCount(), 0u);
    FaultInjector::instance().reset();
}

TEST(ParallelCache, StoppingPoolThrowsBeforeAnyConfigIsScored)
{
    const auto layers = alexNetLayers();
    CachingEvaluator cache;
    ThreadPool pool(4);
    pool.shutdown();
    EXPECT_THROW(evaluateCachedBatch(cache, overlappingConfigs(256, 64, 127),
                                     {"", layers, {}}, pool),
                 std::runtime_error);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.inner().evaluationCount(), 0u);
}

} // namespace
} // namespace vaesa
