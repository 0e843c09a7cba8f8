/**
 * @file
 * Oracle test for the one-shot mapper's greedy: Scheduler::schedule
 * must return exactly the mapping of the brute-force reference greedy
 * (tests/common/reference_scheduler.hh), or nullopt where it does. The
 * pairs are random layer shapes well beyond the named workloads, every
 * named and zoo workload layer on the on-grid configs the searches
 * draw, and hand-built edge layers.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "arch/design_space.hh"
#include "sched/scheduler.hh"
#include "util/rng.hh"
#include "workload/networks.hh"
#include "workload/zoo.hh"

#include "../common/golden_configs.hh"
#include "../common/reference_scheduler.hh"

namespace vaesa {
namespace {

constexpr int numLayers = 500;
constexpr int configsPerLayer = 48; // half on-grid, half off-grid

/**
 * Asserts (gtest ASSERT_*: call through ASSERT_NO_FATAL_FAILURE) that
 * the scheduler and the reference agree on (arch, layer), field by
 * field. Sets *mapped to whether they found a mapping.
 */
void
expectReferenceMapping(const Scheduler &scheduler,
                       const AcceleratorConfig &arch,
                       const LayerShape &layer, bool *mapped)
{
    const auto got = scheduler.schedule(arch, layer);
    const auto want = reference::schedule(arch, layer);
    ASSERT_EQ(got.has_value(), want.has_value())
        << layer.describe() << " on " << arch.describe();
    *mapped = got.has_value();
    if (!got)
        return;
    const auto where = [&] {
        return layer.describe() + " on " + arch.describe() + ": got " +
               got->describe() + ", want " + want->describe();
    };
    ASSERT_EQ(got->spatialK, want->spatialK) << where();
    ASSERT_EQ(got->spatialC, want->spatialC) << where();
    ASSERT_EQ(got->tilePe, want->tilePe) << where();
    ASSERT_EQ(got->tileGb, want->tileGb) << where();
}

/** A layer with the given extents and strides. */
LayerShape
shape(std::int64_t r, std::int64_t s, std::int64_t p, std::int64_t q,
      std::int64_t c, std::int64_t k, std::int64_t stride = 1)
{
    LayerShape layer;
    layer.name = "edge";
    layer.r = r;
    layer.s = s;
    layer.p = p;
    layer.q = q;
    layer.c = c;
    layer.k = k;
    layer.strideW = stride;
    layer.strideH = stride;
    return layer;
}

TEST(SchedulerReference, MatchesOnRandomLayers)
{
    Rng rng(20221022);
    // Uniform integer in [lo, hi].
    const auto range = [&rng](std::int64_t lo, std::int64_t hi) {
        return lo + static_cast<std::int64_t>(rng.index(hi - lo + 1));
    };
    constexpr std::array<std::int64_t, 12> primes{
        2, 3, 5, 7, 13, 31, 61, 127, 251, 509, 2039, 4093};
    // Layer extents up to 4096: a prime, log-uniform or uniform.
    const auto extent = [&]() -> std::int64_t {
        switch (range(0, 2)) {
          case 0: return primes[rng.index(primes.size())];
          case 1: return range(1, 64) << range(0, 6);
          default: return range(1, 4096);
        }
    };
    // Buffers log-uniform over 1 B .. 4 MiB, so many off-grid configs
    // drive the shrink paths and the no-legal-mapping exits.
    const auto bytes = [&range] { return range(1, 64) << range(0, 16); };

    const Scheduler scheduler;
    int pairs = 0;
    int mapped = 0;
    for (int i = 0; i < numLayers; ++i) {
        LayerShape layer;
        layer.name = "random";
        layer.r = range(1, 11);
        layer.s = range(1, 11);
        layer.p = extent();
        layer.q = extent();
        layer.c = extent();
        layer.k = extent();
        layer.strideW = range(1, 4);
        layer.strideH = range(1, 4);
        for (int j = 0; j < configsPerLayer; ++j) {
            AcceleratorConfig arch;
            if (j % 2 == 0) {
                arch = designSpace().randomConfig(rng);
            } else {
                arch.numPes = range(1, 64);
                arch.numMacs = arch.numPes * range(1, 128);
                arch.accumBufBytes = bytes();
                arch.weightBufBytes = bytes();
                arch.inputBufBytes = bytes();
                arch.globalBufBytes = bytes();
            }
            bool is_mapped = false;
            ASSERT_NO_FATAL_FAILURE(
                expectReferenceMapping(scheduler, arch, layer, &is_mapped));
            ++pairs;
            mapped += is_mapped ? 1 : 0;
        }
    }
    EXPECT_GE(pairs, 20000);
    // Both outcomes are exercised.
    EXPECT_GT(mapped, pairs / 2);
    EXPECT_LT(mapped, pairs);
}

TEST(SchedulerReference, MatchesOnEveryNamedWorkloadLayer)
{
    // The searches' real traffic: on-grid configs against the layers
    // of every training, test and zoo workload.
    std::vector<LayerShape> layers = gdTestLayers();
    for (const Workload &w : trainingWorkloads())
        layers.insert(layers.end(), w.layers.begin(), w.layers.end());
    for (const Workload &w : zooWorkloads())
        layers.insert(layers.end(), w.layers.begin(), w.layers.end());
    layers = uniqueLayersCounted(layers, nullptr);

    Rng rng(20260422);
    std::vector<AcceleratorConfig> configs = testing::goldenConfigs();
    while (configs.size() < 300)
        configs.push_back(designSpace().randomConfig(rng));

    const Scheduler scheduler;
    int pairs = 0;
    int mapped = 0;
    for (const LayerShape &layer : layers) {
        for (const AcceleratorConfig &arch : configs) {
            bool is_mapped = false;
            ASSERT_NO_FATAL_FAILURE(
                expectReferenceMapping(scheduler, arch, layer, &is_mapped));
            ++pairs;
            mapped += is_mapped ? 1 : 0;
        }
    }
    EXPECT_GE(layers.size(), 100u);
    EXPECT_GT(mapped, pairs / 2);
}

TEST(SchedulerReference, MatchesOnEdgeLayers)
{
    const std::vector<LayerShape> layers = {
        shape(1, 1, 1, 1, 1, 1),          // every dimension 1
        shape(1, 1, 1, 1, 2048, 1000),    // FC: P = Q = 1
        shape(1, 1, 28, 28, 256, 512, 2), // stride above the filter
        shape(3, 3, 7, 7, 64, 64, 4),
        shape(3, 3, 13, 13, 4093, 127),   // prime C > lanes, K > PEs
        shape(1, 1, 1, 1, 4093, 509),
        shape(11, 1, 5, 61, 7, 2039, 3),  // lopsided window and strides
    };
    Rng rng(7);
    std::vector<AcceleratorConfig> configs = testing::goldenConfigs();
    while (configs.size() < 200)
        configs.push_back(designSpace().randomConfig(rng));
    // The extremes of the grid, and one PE and one lane.
    AcceleratorConfig corner;
    corner.numPes = 64;
    corner.numMacs = 4096;
    corner.accumBufBytes = 96 * 1024;
    corner.weightBufBytes = 8 * 1024 * 1024;
    corner.inputBufBytes = 256 * 1024;
    corner.globalBufBytes = 256 * 1024;
    configs.push_back(corner);
    corner.numPes = 1;
    corner.numMacs = 1;
    configs.push_back(corner);

    const Scheduler scheduler;
    int mapped = 0;
    for (const LayerShape &layer : layers) {
        for (const AcceleratorConfig &arch : configs) {
            bool is_mapped = false;
            ASSERT_NO_FATAL_FAILURE(
                expectReferenceMapping(scheduler, arch, layer, &is_mapped));
            mapped += is_mapped ? 1 : 0;
        }
    }
    EXPECT_GT(mapped, 0);
}

TEST(SchedulerReference, EqualScoreDoublingsGoToTheFirstDimension)
{
    // P and Q are mirror images (P = Q, R = S, equal strides), so at
    // every round where both can double their scores tie exactly. A
    // tie taken by P first leaves the per-PE tile with P >= Q; a tie
    // taken by Q (<= instead of <) would leave Q >= P.
    const LayerShape layer = shape(3, 3, 56, 56, 64, 64);
    Rng rng(11);
    const Scheduler scheduler;
    int lopsided = 0;
    for (int i = 0; i < 200; ++i) {
        const AcceleratorConfig arch = designSpace().randomConfig(rng);
        bool is_mapped = false;
        ASSERT_NO_FATAL_FAILURE(
            expectReferenceMapping(scheduler, arch, layer, &is_mapped));
        if (!is_mapped)
            continue;
        const Mapping m = *scheduler.schedule(arch, layer);
        ASSERT_GE(m.tilePe[DimP], m.tilePe[DimQ]) << m.describe();
        lopsided += m.tilePe[DimP] > m.tilePe[DimQ] ? 1 : 0;
    }
    EXPECT_GT(lopsided, 0);
}

TEST(SchedulerReference, BuffersHoldingNoTileMapNothing)
{
    const Scheduler scheduler;
    const LayerShape layer = shape(3, 3, 14, 14, 256, 256);
    AcceleratorConfig arch = testing::goldenConfigs()[1];
    // A buffer below one word (2 bytes) holds no tile: each PE buffer
    // in turn, then the global buffer.
    for (std::int64_t AcceleratorConfig::*buffer :
         {&AcceleratorConfig::weightBufBytes,
          &AcceleratorConfig::inputBufBytes,
          &AcceleratorConfig::accumBufBytes,
          &AcceleratorConfig::globalBufBytes}) {
        AcceleratorConfig tiny = arch;
        tiny.*buffer = 1;
        bool is_mapped = true;
        ASSERT_NO_FATAL_FAILURE(
            expectReferenceMapping(scheduler, tiny, layer, &is_mapped));
        EXPECT_FALSE(is_mapped) << tiny.describe();
    }
    bool is_mapped = false;
    ASSERT_NO_FATAL_FAILURE(
        expectReferenceMapping(scheduler, arch, layer, &is_mapped));
    EXPECT_TRUE(is_mapped);
}

} // namespace
} // namespace vaesa
