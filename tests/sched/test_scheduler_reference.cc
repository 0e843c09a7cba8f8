/**
 * @file
 * Oracle test for the one-shot mapper's pruned greedy: on random layer
 * shapes, well beyond the named workloads the golden digest covers,
 * Scheduler::schedule must return exactly the mapping of the
 * brute-force reference greedy (tests/common/reference_scheduler.hh),
 * or nullopt where it does.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "arch/design_space.hh"
#include "sched/scheduler.hh"
#include "util/rng.hh"

#include "../common/reference_scheduler.hh"

namespace vaesa {
namespace {

constexpr int numLayers = 500;
constexpr int configsPerLayer = 48; // half on-grid, half off-grid

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
            const auto got = scheduler.schedule(arch, layer);
            const auto want = reference::schedule(arch, layer);
            ++pairs;
            ASSERT_EQ(got.has_value(), want.has_value())
                << layer.describe() << " on " << arch.describe();
            if (!got)
                continue;
            ++mapped;
            const auto where = [&] {
                return layer.describe() + " on " + arch.describe() +
                       ": got " + got->describe() + ", want " +
                       want->describe();
            };
            ASSERT_EQ(got->spatialK, want->spatialK) << where();
            ASSERT_EQ(got->spatialC, want->spatialC) << where();
            ASSERT_EQ(got->tilePe, want->tilePe) << where();
            ASSERT_EQ(got->tileGb, want->tileGb) << where();
        }
    }
    EXPECT_GE(pairs, 20000);
    // Both outcomes are exercised.
    EXPECT_GT(mapped, pairs / 2);
    EXPECT_LT(mapped, pairs);
}

} // namespace
} // namespace vaesa
