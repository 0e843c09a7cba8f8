/** @file Unit tests for the built-in networks (Tables III and IV). */

#include <gtest/gtest.h>

#include <cmath>

#include "workload/networks.hh"

namespace vaesa {
namespace {

TEST(Networks, UniqueLayerCountsMatchTableIII)
{
    EXPECT_EQ(alexNetLayers().size(), 8u);
    EXPECT_EQ(resNet50Layers().size(), 24u);
    EXPECT_EQ(resNext50Layers().size(), 25u);
    EXPECT_EQ(deepBenchLayers().size(), 9u);
}

TEST(Networks, BuiltInLayersAreAlreadyUnique)
{
    for (const Workload &w : trainingWorkloads()) {
        EXPECT_EQ(uniqueLayersCounted(w.layers, nullptr).size(),
                  w.layers.size())
            << w.name;
    }
}

TEST(Networks, BuiltInWorkloadsStayInPaperMode)
{
    // The four Table III workloads keep EMPTY counts (every layer
    // once) so the fig/tab benches reproduce the paper bit for bit.
    for (const Workload &w : trainingWorkloads()) {
        EXPECT_FALSE(w.hasCounts()) << w.name;
        EXPECT_EQ(w.totalLayers(),
                  static_cast<std::int64_t>(w.layers.size()))
            << w.name;
        for (std::size_t i = 0; i < w.layers.size(); ++i)
            EXPECT_EQ(w.countOf(i), 1) << w.name;
    }
}

// Regression: deduplication silently dropped multiplicity — a
// network running one shape 3x scored it 1x in any whole-network
// roll-up. uniqueLayersCounted preserves the dropped duplicates as
// occurrence counts.
TEST(Networks, UniqueLayersCountedPreservesMultiplicity)
{
    std::vector<LayerShape> seq = resNet50Layers();
    const std::size_t unique = seq.size();
    // Repeat the first shape twice more and the last once more.
    seq.push_back(seq[0]);
    seq.push_back(seq[0]);
    seq.push_back(seq[unique - 1]);

    std::vector<std::int64_t> counts;
    const std::vector<LayerShape> out =
        uniqueLayersCounted(seq, &counts);
    ASSERT_EQ(out.size(), unique);
    ASSERT_EQ(counts.size(), unique);
    EXPECT_EQ(counts[0], 3);
    EXPECT_EQ(counts[unique - 1], 2);
    for (std::size_t i = 1; i + 1 < unique; ++i)
        EXPECT_EQ(counts[i], 1);

    // Counting does not change the layers: first-occurrence order and
    // shapes are exactly those of the uncounted call.
    const std::vector<LayerShape> plain = uniqueLayersCounted(seq, nullptr);
    ASSERT_EQ(plain.size(), out.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_TRUE(out[i].sameShape(plain[i])) << i;
}

TEST(Networks, CountedWorkloadReconstructsFullSequenceTotals)
{
    std::vector<LayerShape> seq;
    for (int rep = 0; rep < 3; ++rep)
        seq.push_back(alexNetLayers()[0]);
    seq.push_back(alexNetLayers()[1]);

    const Workload w = countedWorkload("toy", seq);
    ASSERT_EQ(w.layers.size(), 2u);
    EXPECT_TRUE(w.hasCounts());
    EXPECT_EQ(w.countOf(0), 3);
    EXPECT_EQ(w.countOf(1), 1);
    EXPECT_EQ(w.totalLayers(), 4);

    double plainSum = 0.0;
    for (const LayerShape &l : seq)
        plainSum += l.macs();
    EXPECT_EQ(w.totalMacs(), plainSum);
}

TEST(Networks, AllLayersAreSane)
{
    for (const Workload &w : trainingWorkloads())
        for (const LayerShape &l : w.layers)
            EXPECT_TRUE(l.isSane()) << l.describe();
    for (const LayerShape &l : gdTestLayers())
        EXPECT_TRUE(l.isSane()) << l.describe();
}

TEST(Networks, GdTestLayersMatchTableIV)
{
    const auto layers = gdTestLayers();
    ASSERT_EQ(layers.size(), 12u);
    // Row 1: FC 2208 -> 1000.
    EXPECT_EQ(layers[0].c, 2208);
    EXPECT_EQ(layers[0].k, 1000);
    EXPECT_EQ(layers[0].r, 1);
    // Row 8: 3x3 350x80 64 -> 64.
    EXPECT_EQ(layers[7].p, 350);
    EXPECT_EQ(layers[7].q, 80);
    EXPECT_EQ(layers[7].c, 64);
    // Row 12: 5x5 700x161 stride 2.
    EXPECT_EQ(layers[11].r, 5);
    EXPECT_EQ(layers[11].p, 700);
    EXPECT_EQ(layers[11].strideW, 2);
    EXPECT_EQ(layers[11].strideH, 2);
}

TEST(Networks, GdTestLayersMostlyUnseenInTraining)
{
    // Table IV is selected from networks other than the four
    // training workloads. One coincidental shape collision exists:
    // gd.layer03 (1x1, 28x28, 512->512) equals ResNeXt-50's stage-3
    // reduce layer. Everything else must be unseen.
    const auto test_layers = gdTestLayers();
    int collisions = 0;
    for (const Workload &w : trainingWorkloads())
        for (const LayerShape &train : w.layers)
            for (const LayerShape &test : test_layers)
                collisions += train.sameShape(test);
    EXPECT_LE(collisions, 1);
}

TEST(Networks, ResNet50MacsInKnownRange)
{
    // ResNet-50 totals ~3.8 GMACs counting repeats; the 24 *unique*
    // layers alone are within [0.5, 2] GMACs.
    double total = 0.0;
    for (const LayerShape &l : resNet50Layers())
        total += l.macs();
    EXPECT_GT(total, 5e8);
    EXPECT_LT(total, 2e9);
}

TEST(Networks, AlexNetConv1Shape)
{
    const auto layers = alexNetLayers();
    EXPECT_EQ(layers[0].r, 11);
    EXPECT_EQ(layers[0].strideW, 4);
    EXPECT_EQ(layers[0].c, 3);
    EXPECT_EQ(layers[0].k, 64);
}

TEST(Networks, ResNextGroupedLayersHaveReducedC)
{
    // Grouped 3x3 convolutions carry per-group input channels.
    for (const LayerShape &l : resNext50Layers()) {
        if (l.name.find("conv3x3g") != std::string::npos) {
            EXPECT_EQ(l.c, l.k / 32) << l.describe();
        }
    }
}

TEST(Networks, WorkloadByNameFindsAll)
{
    for (const char *name :
         {"alexnet", "resnet50", "resnext50", "deepbench"}) {
        const Workload w = workloadByName(name);
        EXPECT_EQ(w.name, name);
        EXPECT_FALSE(w.layers.empty());
    }
}

TEST(Networks, WorkloadByNameRejectsUnknown)
{
    EXPECT_DEATH(workloadByName("vgg16"), "unknown workload");
}

TEST(Networks, UniqueLayersKeepsFirstOccurrence)
{
    std::vector<LayerShape> layers = alexNetLayers();
    layers.push_back(layers[0]);
    layers[layers.size() - 1].name = "duplicate";
    const auto unique = uniqueLayersCounted(layers, nullptr);
    EXPECT_EQ(unique.size(), 8u);
    EXPECT_EQ(unique[0].name, "alexnet.conv1");
}

TEST(Networks, LayerNamesAreDistinct)
{
    for (const Workload &w : trainingWorkloads()) {
        for (std::size_t i = 0; i < w.layers.size(); ++i)
            for (std::size_t j = i + 1; j < w.layers.size(); ++j)
                EXPECT_NE(w.layers[i].name, w.layers[j].name);
    }
}

} // namespace
} // namespace vaesa
