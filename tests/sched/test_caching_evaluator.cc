/** @file Unit tests for the memoizing evaluator. */

#include <gtest/gtest.h>

#include <cstddef>
#include <future>
#include <vector>

#include "sched/caching_evaluator.hh"
#include "util/deadline.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"
#include "workload/networks.hh"
#include "workload/zoo.hh"

namespace vaesa {
namespace {

AcceleratorConfig
midConfig()
{
    AcceleratorConfig c;
    c.numPes = 16;
    c.numMacs = 1024;
    c.accumBufBytes = 48 * 1024;
    c.weightBufBytes = 1024 * 1024;
    c.inputBufBytes = 64 * 1024;
    c.globalBufBytes = 128 * 1024;
    return c;
}

TEST(CachingEvaluator, MatchesPlainEvaluator)
{
    CachingEvaluator cached;
    Evaluator plain;
    Rng rng(1);
    for (int trial = 0; trial < 30; ++trial) {
        const AcceleratorConfig config =
            designSpace().randomConfig(rng);
        const LayerShape layer =
            resNet50Layers()[rng.index(24)];
        const EvalResult a =
            cached.evaluateWorkload(config, {"", {layer}, {}});
        const EvalResult b = plain.evaluateLayer(config, layer);
        EXPECT_EQ(a.valid, b.valid);
        if (a.valid) {
            EXPECT_DOUBLE_EQ(a.latencyCycles, b.latencyCycles);
            EXPECT_DOUBLE_EQ(a.energyPj, b.energyPj);
        }
    }
}

TEST(CachingEvaluator, RepeatHitsTheCache)
{
    CachingEvaluator cached;
    const LayerShape layer = resNet50Layers()[2];
    cached.evaluateWorkload(midConfig(), {"", {layer}, {}});
    EXPECT_EQ(cached.misses(), 1u);
    EXPECT_EQ(cached.hits(), 0u);
    for (int i = 0; i < 5; ++i)
        cached.evaluateWorkload(midConfig(), {"", {layer}, {}});
    EXPECT_EQ(cached.misses(), 1u);
    EXPECT_EQ(cached.hits(), 5u);
    // The inner evaluator only ran once.
    EXPECT_EQ(cached.inner().evaluationCount(), 1u);
}

TEST(CachingEvaluator, DistinguishesLayersWithSameConfig)
{
    CachingEvaluator cached;
    cached.evaluateWorkload(midConfig(), {"", {resNet50Layers()[2]}, {}});
    cached.evaluateWorkload(midConfig(), {"", {resNet50Layers()[3]}, {}});
    EXPECT_EQ(cached.misses(), 2u);
    EXPECT_EQ(cached.hits(), 0u);
}

TEST(CachingEvaluator, SameShapeDifferentNameShareEntries)
{
    CachingEvaluator cached;
    LayerShape a = resNet50Layers()[2];
    LayerShape b = a;
    b.name = "renamed";
    cached.evaluateWorkload(midConfig(), {"", {a}, {}});
    cached.evaluateWorkload(midConfig(), {"", {b}, {}});
    EXPECT_EQ(cached.misses(), 1u);
    EXPECT_EQ(cached.hits(), 1u);
}

TEST(CachingEvaluator, OffGridConfigsAliasTheirSnap)
{
    CachingEvaluator cached;
    const LayerShape layer = alexNetLayers()[1];
    AcceleratorConfig off = midConfig();
    off.numMacs += 3; // off-grid; snaps back to 1024
    cached.evaluateWorkload(midConfig(), {"", {layer}, {}});
    cached.evaluateWorkload(off, {"", {layer}, {}});
    EXPECT_EQ(cached.misses(), 1u);
    EXPECT_EQ(cached.hits(), 1u);
}

TEST(CachingEvaluator, WorkloadSumsMatchPlain)
{
    // Uncounted (alexnet) and occurrence-counted (bert_base): the
    // cache's roll-up is the plain evaluator's, bit for bit.
    for (const char *name : {"alexnet", "bert_base"}) {
        SCOPED_TRACE(name);
        CachingEvaluator cached;
        Evaluator plain;
        const Workload w = workloadByName(name);
        const EvalResult a = cached.evaluateWorkload(midConfig(), w);
        const EvalResult b = plain.evaluateWorkload(midConfig(), w);
        ASSERT_TRUE(a.valid);
        EXPECT_EQ(a.latencyCycles, b.latencyCycles);
        EXPECT_EQ(a.energyPj, b.energyPj);
        EXPECT_EQ(a.edp, b.edp);
        // A second workload pass is all hits, one per unique layer.
        cached.evaluateWorkload(midConfig(), w);
        EXPECT_EQ(cached.hits(), w.layers.size());
    }
}

TEST(CachingEvaluator, InvalidResultsAreCachedToo)
{
    CachingEvaluator cached;
    AcceleratorConfig bad = midConfig();
    bad.globalBufBytes = 2;
    const LayerShape layer = alexNetLayers()[0];
    EXPECT_FALSE(cached.evaluateWorkload(bad, {"", {layer}, {}}).valid);
    EXPECT_FALSE(cached.evaluateWorkload(bad, {"", {layer}, {}}).valid);
    EXPECT_EQ(cached.misses(), 1u);
    EXPECT_EQ(cached.hits(), 1u);
}

TEST(CachingEvaluator, ConfigKeyIsPerfectPacking)
{
    // Two different grid configs can never collide: exercise a batch
    // of random configs per layer and verify distinct results per
    // distinct config where EDPs differ.
    CachingEvaluator cached;
    Evaluator plain;
    const LayerShape layer = resNet50Layers()[5];
    Rng rng(9);
    for (int i = 0; i < 40; ++i) {
        const AcceleratorConfig config =
            designSpace().randomConfig(rng);
        const EvalResult a =
            cached.evaluateWorkload(config, {"", {layer}, {}});
        const EvalResult b = plain.evaluateLayer(config, layer);
        EXPECT_EQ(a.valid, b.valid);
        if (a.valid) {
            EXPECT_DOUBLE_EQ(a.edp, b.edp);
        }
    }
}


// ---------------------------------------------------------------------
// Contract of the one-probe evaluateWorkload: results and hit/miss
// totals bit-identical to a loop of one-layer evaluateWorkload()
// calls run on a second, identically warmed cache.
// ---------------------------------------------------------------------

/** The per-layer loop evaluateWorkload() must reproduce exactly:
 *  one single-layer call per layer, weighted by the layer's count. */
EvalResult
perLayerLoop(const CachingEvaluator &cache, const AcceleratorConfig &config,
             const Workload &workload)
{
    EvalResult total;
    total.valid = true;
    for (std::size_t i = 0; i < workload.layers.size(); ++i) {
        const EvalResult r =
            cache.evaluateWorkload(config, {"", {workload.layers[i]}, {}});
        if (!r.valid)
            return EvalResult{};
        const auto n = static_cast<double>(workload.countOf(i));
        total.latencyCycles += n * r.latencyCycles;
        total.energyPj += n * r.energyPj;
    }
    total.edp = total.latencyCycles * total.energyPj;
    return total;
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

/** Both caches hold the same counters and the same inner work. */
void
expectSameCounters(const CachingEvaluator &probe,
                   const CachingEvaluator &loop)
{
    EXPECT_EQ(probe.hits(), loop.hits());
    EXPECT_EQ(probe.misses(), loop.misses());
    EXPECT_EQ(probe.inner().evaluationCount(),
              loop.inner().evaluationCount());
}

/** Score @p config on @p workload through both paths and compare. */
void
expectOneProbeMatchesLoop(const CachingEvaluator &probe,
                          const CachingEvaluator &loop,
                          const AcceleratorConfig &config,
                          const Workload &workload)
{
    expectBitIdentical(probe.evaluateWorkload(config, workload),
                       perLayerLoop(loop, config, workload));
    expectSameCounters(probe, loop);
}

/** Index of the first layer whose shape is not in @p cached. */
std::size_t
firstUncached(const std::vector<LayerShape> &layers,
              const std::vector<LayerShape> &cached)
{
    std::size_t i = 0;
    for (; i < layers.size(); ++i) {
        bool hit = false;
        for (const LayerShape &shape : cached)
            hit = hit || shape.sameShape(layers[i]);
        if (!hit)
            break;
    }
    return i;
}

/** The first @p count distinct shapes of @p layers in walk order:
 *  the layers a cold call computes first. */
std::vector<LayerShape>
firstDistinct(const std::vector<LayerShape> &layers, std::size_t count)
{
    std::vector<LayerShape> out;
    for (const LayerShape &layer : layers)
        if (out.size() < count && firstUncached({layer}, out) == 0)
            out.push_back(layer);
    return out;
}

TEST(CachingEvaluatorOneProbe, ColdWarmAndPartlyWarmMatchLayerLoop)
{
    const Workload resnet{"", resNet50Layers(), {}};
    const std::vector<LayerShape> &layers = resnet.layers;
    CachingEvaluator probe;
    CachingEvaluator loop;
    Rng rng(21);
    for (int trial = 0; trial < 12; ++trial) {
        const AcceleratorConfig config = designSpace().randomConfig(rng);
        // Partly warm every other config: the same scattered layers
        // on both caches, before either path sees the workload.
        if (trial % 2 == 1) {
            for (std::size_t i = 0; i < layers.size(); i += 3) {
                probe.evaluateWorkload(config, {"", {layers[i]}, {}});
                loop.evaluateWorkload(config, {"", {layers[i]}, {}});
            }
        }
        expectOneProbeMatchesLoop(probe, loop, config, resnet); // cold
        expectOneProbeMatchesLoop(probe, loop, config, resnet); // warm
    }
    EXPECT_GT(probe.hits(), 0u);
    EXPECT_GT(probe.misses(), 0u);
}

TEST(CachingEvaluatorOneProbe, InvalidMiddleLayerStopsTheWalk)
{
    // A config that maps every resnet50 layer but not the middle
    // layer of this workload: a zero-channel shape has no mapping.
    const std::vector<LayerShape> resnet = resNet50Layers();
    LayerShape unmappable = resnet[2];
    unmappable.k = 0;
    const Workload row{"",
                       {resnet[0], resnet[1], unmappable, resnet[3],
                        resnet[4]},
                       {}};
    const std::vector<LayerShape> &layers = row.layers;
    const AcceleratorConfig config = midConfig();
    ASSERT_TRUE(Evaluator().evaluateWorkload(config, resnet).valid);

    CachingEvaluator probe;
    CachingEvaluator loop;
    const EvalResult result = probe.evaluateWorkload(config, row);
    EXPECT_FALSE(result.valid);
    expectBitIdentical(result, perLayerLoop(loop, config, row));
    expectSameCounters(probe, loop);
    // Only the three layers up to the invalid one were looked up.
    EXPECT_EQ(probe.hits() + probe.misses(), 3u);

    // The layers past the invalid one were never cached.
    const std::uint64_t missesBefore = probe.misses();
    probe.evaluateWorkload(config, {"", {layers[3]}, {}});
    probe.evaluateWorkload(config, {"", {layers[4]}, {}});
    EXPECT_EQ(probe.misses(), missesBefore + 2);
}

TEST(CachingEvaluatorOneProbe, RepeatedZooShapesComputeOnce)
{
    // The counted zoo workloads, scored as the serve daemon scores
    // them, and one caller-given row that repeats shapes within
    // itself.
    std::vector<Workload> workloads = zooWorkloads();
    const std::vector<LayerShape> resnet = resNet50Layers();
    workloads.push_back({"repeats",
                         {resnet[0], resnet[1], resnet[0], resnet[2],
                          resnet[1], resnet[0]},
                         {}});
    for (const Workload &w : workloads) {
        CachingEvaluator probe;
        CachingEvaluator loop;
        Rng rng(5);
        for (int trial = 0; trial < 3; ++trial) {
            const AcceleratorConfig config =
                designSpace().randomConfig(rng);
            SCOPED_TRACE(w.name);
            expectOneProbeMatchesLoop(probe, loop, config, w);
        }
        // Each shape computed at most once per config: a repeat in
        // the row counts as a hit, and a count is only a weight.
        EXPECT_LE(probe.inner().evaluationCount(),
                  3 * firstDistinct(w.layers, w.layers.size()).size())
            << w.name;
    }
}

TEST(CachingEvaluatorOneProbe, ExpiredTokenKeepsOnlyComputedLayers)
{
    const Workload resnet{"", resNet50Layers(), {}};
    const std::vector<LayerShape> &layers = resnet.layers;
    Rng rng(33);

    // Deterministic k = 1: the token expired before the call, so the
    // walk counts the warm prefix as hits and throws at the first
    // layer it would have to compute, computing nothing.
    {
        const AcceleratorConfig config = designSpace().randomConfig(rng);
        const std::vector<LayerShape> warm(layers.begin(),
                                           layers.begin() + 4);
        CachingEvaluator probe;
        CachingEvaluator loop;
        for (const LayerShape &layer : warm) {
            probe.evaluateWorkload(config, {"", {layer}, {}});
            loop.evaluateWorkload(config, {"", {layer}, {}});
        }
        CancelToken expired;
        expired.cancel();
        EXPECT_THROW(probe.evaluateWorkload(config, resnet, &expired),
                     DeadlineExceeded);
        for (std::size_t i = 0; i < firstUncached(layers, warm); ++i)
            loop.evaluateWorkload(config, {"", {layers[i]}, {}});
        expectSameCounters(probe, loop);
        expectOneProbeMatchesLoop(probe, loop, config, resnet);
    }

    // Deadlines that land mid-walk: whichever computed layer k the
    // deadline stops before, the cache keeps exactly the k - 1 layers
    // computed before it and the counters account every layer walked.
    for (const std::uint64_t deadlineUs : {0u, 20u, 100u, 400u, 2000u}) {
        const AcceleratorConfig config = designSpace().randomConfig(rng);
        CachingEvaluator probe;
        CachingEvaluator loop;
        CancelToken token;
        token.setDeadlineNs(metrics::monotonicNowNs() +
                            deadlineUs * 1000ull);
        try {
            const EvalResult result =
                probe.evaluateWorkload(config, resnet, &token);
            expectBitIdentical(result, perLayerLoop(loop, config, resnet));
        } catch (const DeadlineExceeded &) {
            // A cold walk hits only repeats of shapes it computed, so
            // it stopped at the first layer of the next new shape.
            const std::size_t walked = firstUncached(
                layers, firstDistinct(layers, probe.misses()));
            for (std::size_t i = 0; i < walked; ++i)
                loop.evaluateWorkload(config, {"", {layers[i]}, {}});
        }
        EXPECT_EQ(probe.misses(), probe.inner().evaluationCount());
        expectSameCounters(probe, loop);
        // Finishing the workload on both caches agrees bit-for-bit:
        // the throw left exactly the computed layers behind.
        expectOneProbeMatchesLoop(probe, loop, config, resnet);
    }
}

TEST(CachingEvaluatorOneProbe, ExpiredCallerDoesNotHarmConcurrentCaller)
{
    // Callers sharing one cache on their own threads, as serve
    // connections do: the one whose token has expired throws, and its
    // mates' results are bit-identical to a plain evaluator's.
    const Workload resnet{"", resNet50Layers(), {}};
    Rng rng(44);
    std::vector<AcceleratorConfig> configs;
    for (int i = 0; i < 4; ++i)
        configs.push_back(designSpace().randomConfig(rng));

    const CachingEvaluator cache;
    CancelToken expired;
    expired.cancel();
    std::vector<EvalResult> got(configs.size());
    bool doomedThrew = false;
    ThreadPool pool(configs.size());
    std::vector<std::future<void>> done;
    done.push_back(pool.submit([&] {
        try {
            cache.evaluateWorkload(configs[0], resnet, &expired);
        } catch (const DeadlineExceeded &) {
            doomedThrew = true;
        }
    }));
    for (std::size_t i = 1; i < configs.size(); ++i)
        done.push_back(pool.submit([&, i] {
            got[i] = cache.evaluateWorkload(configs[i], resnet);
        }));
    for (auto &future : done)
        future.get();
    pool.shutdown();

    EXPECT_TRUE(doomedThrew);
    const Evaluator plain;
    for (std::size_t i = 1; i < configs.size(); ++i)
        expectBitIdentical(got[i],
                           plain.evaluateWorkload(configs[i], resnet));
    EXPECT_EQ(cache.misses(), cache.inner().evaluationCount());
}

} // namespace
} // namespace vaesa
