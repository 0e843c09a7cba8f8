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
#include <map>
#include <vector>

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
    pool.parallelFor(batch.size(), [&](std::size_t i) {
        for (std::size_t l = 0; l < layersUsed; ++l)
            got[i].push_back(
                cached.evaluateLayer(batch[i], layers[l]));
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

    pool.parallelFor(8 * layers.size(), [&](std::size_t i) {
        cached.evaluateLayer(config, layers[i % layers.size()]);
    });
    EXPECT_EQ(cached.hits() + cached.misses(), 8 * layers.size());

    const std::uint64_t missesAfterWarm = cached.misses();
    pool.parallelFor(8 * layers.size(), [&](std::size_t i) {
        cached.evaluateLayer(config, layers[i % layers.size()]);
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
        cached.evaluateLayer(batch[i], layers[0]);
    const std::uint64_t warmLookups = cached.hits() + cached.misses();

    ThreadPool pool(8);
    pool.parallelFor(batch.size(), [&](std::size_t i) {
        cached.evaluateLayer(batch[i], layers[0]);
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
        expected.push_back(serialCache.evaluateWorkload(config, layers));

    // 8 workers, chunked work stealing through a fresh cache.
    CachingEvaluator cache;
    ThreadPool pool(8);
    const ParallelEvaluator parallel(cache, pool);
    const std::vector<EvalResult> got =
        parallel.evaluateBatch(batch, layers);

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
        parallel.evaluateBatch(batch, layers);
    EXPECT_EQ(cache.misses(), warmMisses);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(again[i].edp, got[i].edp);
}

TEST(ParallelCache, ContentionMetricIsMonotoneAcrossBatches)
{
    // cache.shard_contention (and the per-instance contention())
    // only ever accumulates: each batch round may add queueing
    // events but can never reclaim them. The counter is observed
    // only (perfbench reads it); it no longer sizes the cache.
    const auto layers = alexNetLayers();
    const std::vector<AcceleratorConfig> batch =
        overlappingConfigs(512, 8, 41);

    CachingEvaluator cache;
    ThreadPool pool(8);
    const ParallelEvaluator parallel(cache, pool);

    metrics::Counter &global =
        metrics::counter("cache.shard_contention");
    std::uint64_t prevGlobal = global.value();
    std::uint64_t prevLocal = cache.contention();
    for (int round = 0; round < 4; ++round) {
        parallel.evaluateBatch(batch, layers);
        EXPECT_GE(global.value(), prevGlobal) << "round " << round;
        EXPECT_GE(cache.contention(), prevLocal) << "round " << round;
        prevGlobal = global.value();
        prevLocal = cache.contention();
    }
    // The instance mirrors every queueing event into the global
    // metric, so the instance can never run ahead of it.
    EXPECT_GE(global.value(), cache.contention());
}

TEST(ParallelCache, ShardCountIsFixedForTheInstanceLifetime)
{
    // 4 shards per default pool thread, at least 16, rounded up to a
    // power of two; contended batches and clear() never resize it.
    const std::size_t want =
        std::max<std::size_t>(16, 4 * ThreadPool::defaultThreadCount());
    CachingEvaluator cache;
    const std::size_t shards = cache.shardCount();
    EXPECT_GE(shards, want);
    EXPECT_LT(shards, 2 * want);
    EXPECT_EQ(shards & (shards - 1), 0u);

    ThreadPool pool(8);
    const ParallelEvaluator parallel(cache, pool);
    parallel.evaluateBatch(overlappingConfigs(512, 8, 43),
                           alexNetLayers());
    cache.clear();
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
    const ParallelEvaluator parallel(cache, pool);

    FaultInjector::instance().arm("batch_chunk", 1);
    EXPECT_THROW(parallel.evaluateBatch(batch, {layers[0]}),
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
        parallel.evaluateBatch(batch, {layers[0]});
    CachingEvaluator serialCache;
    std::uint64_t distinct = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const EvalResult expected =
            serialCache.evaluateLayer(batch[i], layers[0]);
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
    const ParallelEvaluator parallel(cache, pool);

    FaultInjector::instance().arm("batch_chunk", 2);
    EXPECT_THROW(parallel.evaluateBatch(batch, {layers[1]}),
                 InjectedFault);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);

    // Retry: bit-identical to serial, and the miss count equals the
    // distinct snapped keys — nothing from the killed batch was
    // inserted.
    const std::vector<EvalResult> got =
        parallel.evaluateBatch(batch, {layers[1]});
    CachingEvaluator serialCache;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const EvalResult expected =
            serialCache.evaluateLayer(batch[i], layers[1]);
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

} // namespace
} // namespace vaesa
