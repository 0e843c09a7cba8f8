/**
 * @file
 * Serial-vs-parallel equivalence tests for the batch evaluation
 * layer: every ParallelEvaluator result must be bit-identical to the
 * serial Evaluator/CachingEvaluator loops it replaces, and cache
 * hit-rates must agree once warmed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sched/parallel_evaluator.hh"
#include "util/deadline.hh"
#include "util/fault.hh"
#include "util/rng.hh"
#include "workload/networks.hh"
#include "workload/zoo.hh"

namespace vaesa {
namespace {

std::vector<AcceleratorConfig>
randomBatch(std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<AcceleratorConfig> batch;
    batch.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        batch.push_back(designSpace().randomConfig(rng));
    return batch;
}

void
expectBitIdentical(const EvalResult &a, const EvalResult &b)
{
    EXPECT_EQ(a.valid, b.valid);
    // EXPECT_EQ on double is exact comparison: 0 ULP tolerance.
    EXPECT_EQ(a.latencyCycles, b.latencyCycles);
    EXPECT_EQ(a.energyPj, b.energyPj);
    EXPECT_EQ(a.edp, b.edp);
}

TEST(ParallelEvaluator, BatchBitIdenticalToSerialEvaluator)
{
    // Every workload workloadByName() resolves, through a cold and
    // then a warm cache, against the scalar loop and the uncached
    // config-major batch. ParallelEvaluator sums layers uncounted, so
    // the references drop the counts too.
    std::vector<Workload> workloads = trainingWorkloads();
    for (Workload &w : zooWorkloads())
        workloads.push_back(std::move(w));
    std::vector<AcceleratorConfig> batch = randomBatch(32, 7);
    batch.insert(batch.end(), batch.begin(), batch.begin() + 8);
    ThreadPool pool(4);

    for (Workload &w : workloads) {
        w.counts.clear();
        SCOPED_TRACE(w.name);

        const Evaluator plain;
        std::vector<EvalResult> expected;
        expected.reserve(batch.size());
        for (const AcceleratorConfig &config : batch)
            expected.push_back(plain.evaluateWorkload(config, w.layers));
        const std::vector<EvalResult> uncached =
            evaluateConfigBatch(plain, batch, w, pool);

        const CachingEvaluator cached;
        const ParallelEvaluator parallel(cached, pool);
        const std::vector<EvalResult> cold =
            parallel.evaluateBatch(batch, w.layers);
        const std::uint64_t coldMisses = cached.misses();
        const std::vector<EvalResult> warm =
            parallel.evaluateBatch(batch, w.layers);
        EXPECT_EQ(cached.misses(), coldMisses) << "warm pass missed";

        ASSERT_EQ(uncached.size(), expected.size());
        ASSERT_EQ(cold.size(), expected.size());
        ASSERT_EQ(warm.size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
            SCOPED_TRACE(::testing::Message() << "item " << i);
            expectBitIdentical(uncached[i], expected[i]);
            expectBitIdentical(cold[i], expected[i]);
            expectBitIdentical(warm[i], expected[i]);
        }
    }
}

TEST(ParallelEvaluator, LayerBatchBitIdenticalToSerial)
{
    const LayerShape layer = resNet50Layers()[5];
    const std::vector<AcceleratorConfig> batch = randomBatch(64, 13);

    Evaluator plain;
    CachingEvaluator cached;
    ThreadPool pool(4);
    const ParallelEvaluator parallel(cached, pool);
    const std::vector<EvalResult> got =
        parallel.evaluateBatch(batch, {layer});

    for (std::size_t i = 0; i < batch.size(); ++i)
        expectBitIdentical(got[i],
                           plain.evaluateLayer(batch[i], layer));
}

TEST(ParallelEvaluator, InvalidConfigZeroesTotalsLikeSerial)
{
    AcceleratorConfig bad;
    bad.numPes = 16;
    bad.numMacs = 1024;
    bad.accumBufBytes = 48 * 1024;
    bad.weightBufBytes = 1024 * 1024;
    bad.inputBufBytes = 64 * 1024;
    bad.globalBufBytes = 2; // unmappable
    const auto layers = alexNetLayers();
    const Workload alexnet{"alexnet", layers, {}};

    Evaluator plain;
    CachingEvaluator cached;
    ThreadPool pool(4);
    const ParallelEvaluator parallel(cached, pool);

    const EvalResult serial = plain.evaluateWorkload(bad, layers);
    ASSERT_FALSE(serial.valid);
    expectBitIdentical(
        evaluateConfigBatch(plain, {bad}, alexnet, pool).front(),
        serial);
    expectBitIdentical(
        parallel.evaluateBatch({bad}, layers).front(), serial);
}

TEST(ParallelEvaluator, WarmedCacheHitRateMatchesSerial)
{
    // Hit-rate parity: after one full pass over a batch, a repeat
    // pass must be 100% hits both serially and in parallel.
    const Workload alexnet = workloadByName("alexnet");
    const std::vector<AcceleratorConfig> batch = randomBatch(24, 31);
    const std::size_t lookups =
        batch.size() * alexnet.layers.size();

    CachingEvaluator serialCache;
    for (const AcceleratorConfig &config : batch)
        serialCache.evaluateWorkload(config, alexnet.layers);
    const std::uint64_t serialWarm = serialCache.hits();
    for (const AcceleratorConfig &config : batch)
        serialCache.evaluateWorkload(config, alexnet.layers);
    const std::uint64_t serialRepeatHits =
        serialCache.hits() - serialWarm;

    CachingEvaluator parallelCache;
    ThreadPool pool(4);
    const ParallelEvaluator parallel(parallelCache, pool);
    parallel.evaluateBatch(batch, alexnet.layers);
    const std::uint64_t parallelWarm = parallelCache.hits();
    parallel.evaluateBatch(batch, alexnet.layers);
    const std::uint64_t parallelRepeatHits =
        parallelCache.hits() - parallelWarm;

    // The repeat pass sees a fully warmed cache in both modes. (The
    // warm pass itself may differ: concurrent first-touches of one
    // key each count a miss.) Unmappable configs early-exit their
    // workload sum identically in both modes, so the counts match
    // exactly without assuming every random config is valid.
    EXPECT_EQ(serialRepeatHits, parallelRepeatHits);
    EXPECT_GT(parallelRepeatHits, 0u);
    EXPECT_LE(parallelRepeatHits, lookups);
}

TEST(ParallelEvaluator, ChunkSizeForNeverEmptyNeverOvercounts)
{
    // The clamp floor of 8 must never produce more chunks than
    // items or a zero-size chunk, across the small/degenerate edges
    // (items < 8, items == 0, threads == 0/1) and normal sizes.
    const std::size_t itemCases[] = {0, 1, 2, 3, 7, 8,
                                     9, 64, 1000, 100000};
    const std::size_t threadCases[] = {0, 1, 2, 8, 64};
    for (const std::size_t items : itemCases) {
        for (const std::size_t threads : threadCases) {
            const std::size_t chunk = chunkSizeFor(items, threads);
            EXPECT_GE(chunk, 1u)
                << "items=" << items << " threads=" << threads;
            EXPECT_LE(chunk, 256u)
                << "items=" << items << " threads=" << threads;
            // Never more chunks than items, never an empty chunk: a
            // chunk larger than the batch would claim ghosts.
            EXPECT_LE(chunk, std::max<std::size_t>(items, 1))
                << "items=" << items << " threads=" << threads;
            if (items > 0) {
                const std::size_t chunks =
                    (items + chunk - 1) / chunk;
                EXPECT_LE(chunks, items)
                    << "items=" << items
                    << " threads=" << threads;
            }
        }
        // threads == 0 must behave exactly like threads == 1.
        EXPECT_EQ(chunkSizeFor(items, 0), chunkSizeFor(items, 1))
            << "items=" << items;
    }
    // Tiny batches get one exact-fit chunk, not a padded floor-8.
    for (std::size_t items = 1; items < 8; ++items)
        EXPECT_EQ(chunkSizeFor(items, 4), items);
}

TEST(ParallelEvaluator, NullItemTokensMatchPlainBatch)
{
    const Workload alexnet = workloadByName("alexnet");
    const std::vector<AcceleratorConfig> batch = randomBatch(12, 41);

    CachingEvaluator plainCache;
    ThreadPool pool(2);
    const ParallelEvaluator plainEval(plainCache, pool);
    const std::vector<EvalResult> expected =
        plainEval.evaluateBatch(batch, alexnet.layers);

    CachingEvaluator tokenCache;
    const ParallelEvaluator tokenEval(tokenCache, pool);
    std::vector<const CancelToken *> tokens(batch.size(), nullptr);
    std::vector<BatchItemStatus> status(batch.size(),
                                        BatchItemStatus::Ok);
    const std::vector<EvalResult> got =
        tokenEval.evaluateConfigBatch(batch, alexnet.layers,
                                      tokens.data(), status.data());

    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(status[i], BatchItemStatus::Ok);
        expectBitIdentical(got[i], expected[i]);
    }
}

TEST(ParallelEvaluator, ExpiredItemDroppedWithoutDisturbingMates)
{
    const Workload alexnet = workloadByName("alexnet");
    const std::vector<AcceleratorConfig> batch = randomBatch(8, 43);

    // Reference: the surviving items scored WITHOUT the doomed one.
    CachingEvaluator referenceCache;
    ThreadPool pool(2);
    const ParallelEvaluator reference(referenceCache, pool);
    std::vector<AcceleratorConfig> survivors(batch.begin() + 1,
                                             batch.end());
    const std::vector<EvalResult> expected =
        reference.evaluateBatch(survivors, alexnet.layers);

    CancelToken doomed;
    doomed.setDeadlineAfterMs(0); // expires before the first layer
    std::vector<const CancelToken *> tokens(batch.size(), nullptr);
    tokens[0] = &doomed;
    std::vector<BatchItemStatus> status(batch.size(),
                                        BatchItemStatus::Ok);

    CachingEvaluator cache;
    const ParallelEvaluator parallel(cache, pool);
    const std::vector<EvalResult> got =
        parallel.evaluateConfigBatch(batch, alexnet.layers,
                                     tokens.data(), status.data());

    // The doomed item is reported expired with an invalid result;
    // its batch-mates are bit-identical to a batch it never joined.
    ASSERT_EQ(got.size(), batch.size());
    EXPECT_EQ(status[0], BatchItemStatus::DeadlineExpired);
    EXPECT_FALSE(got[0].valid);
    EXPECT_EQ(got[0].edp, 0.0);
    for (std::size_t i = 1; i < batch.size(); ++i) {
        EXPECT_EQ(status[i], BatchItemStatus::Ok);
        expectBitIdentical(got[i], expected[i - 1]);
    }
}

/**
 * Distinct configs for the config-major batch tests: on-grid samples
 * valid at every layer, plus every fifth one with a 2-byte
 * accumulation buffer, which cannot hold one psum and so is invalid
 * from the first layer on.
 */
std::vector<AcceleratorConfig>
distinctConfigs(std::size_t count, Rng &rng)
{
    std::vector<AcceleratorConfig> distinct;
    while (distinct.size() < count) {
        AcceleratorConfig c = designSpace().randomConfig(rng);
        if (distinct.size() % 5 == 4)
            c.accumBufBytes = 2;
        if (std::find(distinct.begin(), distinct.end(), c) ==
            distinct.end())
            distinct.push_back(c);
    }
    return distinct;
}

/** A batch of @p n configs of which at least a quarter (n > 1) are
 *  exact copies of other entries, in shuffled order. */
std::vector<AcceleratorConfig>
batchWithDuplicates(std::size_t n, std::uint64_t seed)
{
    if (n == 0)
        return {};
    Rng rng(seed);
    const std::size_t dups = std::min(n - 1, (n + 3) / 4);
    std::vector<AcceleratorConfig> batch =
        distinctConfigs(n - dups, rng);
    for (std::size_t i = 0; i < dups; ++i)
        batch.push_back(batch[rng.index(batch.size())]);
    std::vector<AcceleratorConfig> shuffled;
    for (const std::size_t i : rng.permutation(batch.size()))
        shuffled.push_back(batch[i]);
    return shuffled;
}

/**
 * A copy of @p w with a degenerate layer (K = 0) spliced into the
 * middle. For sane layers a config's validity depends on its buffers
 * alone (the mapper shrinks every tile to 1 word, whatever the
 * layer), so a config that maps layer 0 maps them all; the
 * degenerate layer is what makes valid configs drop out mid-walk.
 */
Workload
withDeadMiddleLayer(Workload w)
{
    const std::size_t mid = w.layers.size() / 2;
    LayerShape dead = w.layers[mid];
    dead.k = 0;
    w.layers.insert(w.layers.begin() + static_cast<long>(mid), dead);
    if (!w.counts.empty())
        w.counts.insert(w.counts.begin() + static_cast<long>(mid), 3);
    return w;
}

/**
 * Free evaluateConfigBatch against the scalar Evaluator over batch
 * sizes {0, 1, 7, 8, 9, 64, 65, 300} at pool widths 1/2/4: bit for bit
 * the same totals, and exactly the serial loop's evaluation count
 * (each unique config's alive prefix).
 */
void
expectConfigBatchMatchesScalar(const Workload &w, bool counted)
{
    const std::size_t sizes[] = {0, 1, 7, 8, 9, 64, 65, 300};
    for (const std::size_t n : sizes) {
        const std::vector<AcceleratorConfig> batch =
            batchWithDuplicates(n, 1000 + n);
        Evaluator scalar;
        std::vector<EvalResult> want;
        std::uint64_t alivePrefixSum = 0;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const std::uint64_t before = scalar.evaluationCount();
            want.push_back(counted
                               ? scalar.evaluateWorkload(batch[i], w)
                               : scalar.evaluateWorkload(batch[i],
                                                         w.layers));
            const bool firstCopy =
                std::find(batch.begin(), batch.begin() + i,
                          batch[i]) == batch.begin() + i;
            if (firstCopy)
                alivePrefixSum += scalar.evaluationCount() - before;
        }
        for (const std::size_t width : {1, 2, 4}) {
            ThreadPool pool(width);
            Evaluator evaluator;
            const std::vector<EvalResult> got =
                evaluateConfigBatch(evaluator, batch, w, pool);
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < got.size(); ++i) {
                SCOPED_TRACE(::testing::Message()
                             << w.name << " n=" << n
                             << " width=" << width << " item=" << i);
                expectBitIdentical(got[i], want[i]);
            }
            EXPECT_EQ(evaluator.evaluationCount(), alivePrefixSum)
                << w.name << " n=" << n << " width=" << width;
        }
    }
}

TEST(ConfigMajorBatch, UncountedLayersBitIdenticalToScalar)
{
    Workload alexnet = workloadByName("alexnet");
    alexnet.counts.clear();
    expectConfigBatchMatchesScalar(alexnet, false);
    expectConfigBatchMatchesScalar(withDeadMiddleLayer(alexnet), false);
}

TEST(ConfigMajorBatch, CountedWorkloadBitIdenticalToScalar)
{
    // MobileNetV2 repeats its inverted-residual shapes (counts up to
    // 4), so a dropped or misplaced weight changes the totals.
    const Workload mobilenet = workloadByName("mobilenet_v2");
    ASSERT_GT(*std::max_element(mobilenet.counts.begin(),
                                mobilenet.counts.end()),
              1);
    expectConfigBatchMatchesScalar(mobilenet, true);
    expectConfigBatchMatchesScalar(withDeadMiddleLayer(mobilenet),
                                   true);
}

TEST(ConfigMajorBatch, BatchChunkFiresOncePerConfigChunk)
{
    // The fault site and the work-stealing claim are per chunk of
    // unique configs, not per (layer, chunk): 64 unique configs on 2
    // workers are 8 chunks of 8, whatever the layer count.
    const Workload alexnet = workloadByName("alexnet");
    const std::vector<AcceleratorConfig> batch = randomBatch(64, 47);
    ASSERT_EQ(chunkSizeFor(batch.size(), 2), 8u);
    FaultInjector::instance().reset();
    FaultInjector::instance().arm("batch_chunk", 1u << 30);
    ThreadPool pool(2);
    const Evaluator evaluator;
    evaluateConfigBatch(evaluator, batch, alexnet, pool);
    EXPECT_EQ(FaultInjector::instance().hitCount("batch_chunk"), 8u);
    FaultInjector::instance().reset();
}

} // namespace
} // namespace vaesa
