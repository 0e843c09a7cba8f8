/**
 * @file
 * Property-based tests of the analytical cost model over random
 * legal mappings (drawn with the RandomMapper), random architectures
 * and every built-in layer: the invariants any Timeloop-like model
 * must satisfy regardless of the mapping.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "studies/random_mapper.hh"
#include "workload/networks.hh"

namespace vaesa {
namespace {

class CostModelProperties : public ::testing::TestWithParam<int>
{
  protected:
    CostModel model;
    RandomMapper mapper;
};

TEST_P(CostModelProperties, InvariantsHoldOnRandomMappings)
{
    Rng rng(100 + GetParam());
    std::vector<LayerShape> pool;
    for (const Workload &w : trainingWorkloads())
        pool.insert(pool.end(), w.layers.begin(), w.layers.end());

    int checked = 0;
    for (int trial = 0; trial < 60; ++trial) {
        const AcceleratorConfig arch =
            designSpace().randomConfig(rng);
        const LayerShape &layer = pool[rng.index(pool.size())];
        const auto mapping = mapper.sampleMapping(arch, layer, rng);
        if (!mapping)
            continue;
        const CostResult r = model.evaluate(arch, layer, *mapping);
        if (!r.valid)
            continue;
        ++checked;

        // Latency is the max of the bound terms and positive.
        EXPECT_GT(r.latencyCycles, 0.0);
        EXPECT_DOUBLE_EQ(r.latencyCycles,
                         std::max({r.computeCycles, r.dramCycles,
                                   r.globalBufCycles}));

        // Compute can never beat the ideal-parallelism bound.
        const double ideal =
            layer.macs() /
            (static_cast<double>(mapping->spatialK) *
             static_cast<double>(mapping->spatialC));
        EXPECT_GE(r.computeCycles, ideal * (1.0 - 1e-9));

        // Every unique word moves at least once. For inputs, the
        // bounding box (inputWords) over-counts gap pixels that a
        // strided convolution never touches and tiled reads may
        // skip; the touched-pixel count is bounded below by P*Q*C.
        EXPECT_GE(r.dramWeightReads,
                  static_cast<double>(layer.weightWords()) - 0.5);
        EXPECT_GE(r.dramInputReads,
                  static_cast<double>(layer.p * layer.q * layer.c) -
                      0.5);
        EXPECT_DOUBLE_EQ(r.dramOutputWrites,
                         static_cast<double>(layer.outputWords()));

        // Energy breakdown sums to the total and is positive.
        const double sum = r.macEnergy + r.registerEnergy +
                           r.inputBufEnergy + r.weightBufEnergy +
                           r.accumBufEnergy + r.globalBufEnergy +
                           r.dramEnergy + r.nocEnergy;
        EXPECT_NEAR(r.energyPj, sum, 1e-9 * sum);
        EXPECT_GT(r.macEnergy, 0.0);
        EXPECT_GT(r.dramEnergy, 0.0);

        // MAC energy is an invariant of the layer, not the mapping.
        EXPECT_NEAR(r.macEnergy,
                    layer.macs() * model.energy().macPj(),
                    1e-6 * r.macEnergy);

        // Utilization in (0, 1].
        EXPECT_GT(r.macUtilization, 0.0);
        EXPECT_LE(r.macUtilization, 1.0 + 1e-12);

        // EDP consistency.
        EXPECT_DOUBLE_EQ(r.edp(),
                         r.latencyCycles * r.energyPj);
    }
    EXPECT_GT(checked, 30);
}

TEST_P(CostModelProperties, EvaluationIsDeterministic)
{
    Rng rng(200 + GetParam());
    const AcceleratorConfig arch = designSpace().randomConfig(rng);
    const LayerShape layer = resNet50Layers()[5];
    const auto mapping = mapper.sampleMapping(arch, layer, rng);
    if (!mapping)
        return;
    const CostResult a = model.evaluate(arch, layer, *mapping);
    const CostResult b = model.evaluate(arch, layer, *mapping);
    EXPECT_EQ(a.valid, b.valid);
    if (a.valid) {
        EXPECT_DOUBLE_EQ(a.latencyCycles, b.latencyCycles);
        EXPECT_DOUBLE_EQ(a.energyPj, b.energyPj);
    }
}

TEST_P(CostModelProperties, WholeArrayTileIsBestCaseTraffic)
{
    // Any random mapping moves at least as much DRAM traffic as the
    // all-resident mapping (when one exists for this architecture).
    Rng rng(300 + GetParam());
    LayerShape tiny;
    tiny.name = "prop.tiny";
    tiny.p = 4;
    tiny.q = 4;
    tiny.c = 8;
    tiny.k = 8;

    AcceleratorConfig arch;
    arch.numPes = 16;
    arch.numMacs = 1024;
    arch.accumBufBytes = 48 * 1024;
    arch.weightBufBytes = 1024 * 1024;
    arch.inputBufBytes = 64 * 1024;
    arch.globalBufBytes = 128 * 1024;

    Mapping resident;
    resident.spatialK = 8;
    resident.spatialC = 8;
    resident.tilePe = {1, 1, 4, 4, 8, 1};
    resident.tileGb = {1, 1, 4, 4, 8, 8};
    const CostResult best = model.evaluate(arch, tiny, resident);
    ASSERT_TRUE(best.valid);
    const double best_traffic = best.dramWeightReads +
                                best.dramInputReads +
                                best.dramOutputWrites;

    for (int trial = 0; trial < 20; ++trial) {
        const auto mapping = mapper.sampleMapping(arch, tiny, rng);
        if (!mapping)
            continue;
        const CostResult r = model.evaluate(arch, tiny, *mapping);
        if (!r.valid)
            continue;
        const double traffic = r.dramWeightReads +
                               r.dramInputReads +
                               r.dramOutputWrites;
        EXPECT_GE(traffic, best_traffic * (1.0 - 1e-9));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostModelProperties,
                         ::testing::Range(0, 8));

} // namespace
} // namespace vaesa
