/**
 * @file
 * Golden validation of the workload zoo: every generator's MAC total
 * is pinned against independently hand-computed arithmetic (the
 * transformer closed form, the MobileNetV2 stage sums, the DLRM
 * tower products), occurrence counts reconstruct whole networks, and
 * every zoo layer survives a parseLayerLine/formatLayerLine round
 * trip exactly.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "../common/layer_line.hh"
#include "workload/parse.hh"
#include "workload/zoo.hh"

namespace vaesa {
namespace {

/** L * (4*S*H^2 + 2*S*H*F + 2*S^2*H), written out by hand. */
double
transformerMacs(double S, double H, double F, double L)
{
    return L * (4.0 * S * H * H + 2.0 * S * H * F + 2.0 * S * S * H);
}

TEST(Zoo, BertBaseGoldenMacs)
{
    const Workload w = bertBaseWorkload();
    // 12 blocks x (4*512*768^2 + 2*512*768*3072 + 2*512^2*768)
    // = 48,318,382,080 exactly.
    EXPECT_EQ(w.totalMacs(), 48318382080.0);
    EXPECT_EQ(w.totalMacs(),
              transformerMacs(512.0, 768.0, 3072.0, 12.0));
}

TEST(Zoo, BertLargeGoldenMacs)
{
    const Workload w = bertLargeWorkload();
    EXPECT_EQ(w.totalMacs(), 167503724544.0);
    EXPECT_EQ(w.totalMacs(),
              transformerMacs(512.0, 1024.0, 4096.0, 24.0));
}

TEST(Zoo, Gpt2GoldenMacs)
{
    const Workload w = gpt2Workload();
    EXPECT_EQ(w.totalMacs(), 360777252864.0);
    EXPECT_EQ(w.totalMacs(),
              transformerMacs(1024.0, 1024.0, 4096.0, 24.0));
}

TEST(Zoo, MobileNetV2GoldenMacs)
{
    const Workload w = mobileNetV2Workload();
    // Stage-by-stage hand sum (stem + 17 inverted residuals + head
    // conv + FC) = 300,774,272 — the published ~300 MMACs figure.
    EXPECT_EQ(w.totalMacs(), 300774272.0);
    EXPECT_EQ(w.totalLayers(), 53);
}

TEST(Zoo, DlrmGoldenMacs)
{
    const Workload w = dlrmWorkload();
    // 2048 * (13*512 + 512*256 + 256*128
    //         + 479*1024 + 1024*1024 + 1024*512 + 512*256 + 256*1)
    EXPECT_EQ(w.totalMacs(), 4843896832.0);
    // The bottom-MLP 512->256 GEMM and the top-MLP 512->256 GEMM
    // share a shape, so the 8 tower GEMMs dedup to 7 unique layers
    // with that one counted twice.
    ASSERT_EQ(w.layers.size(), 7u);
    EXPECT_EQ(w.totalLayers(), 8);
    std::int64_t doubled = 0;
    for (std::size_t i = 0; i < w.layers.size(); ++i)
        if (w.countOf(i) == 2) {
            ++doubled;
            EXPECT_EQ(w.layers[i].c, 512);
            EXPECT_EQ(w.layers[i].k, 256);
        }
    EXPECT_EQ(doubled, 1);
}

TEST(Zoo, TransformerBlockStructure)
{
    const TransformerConfig cfg{512, 768, 12, 3072, 12};
    const std::vector<LayerShape> block =
        transformerBlockLayers("t", cfg);
    // qkv + 12 x (score, ctx) + out + up + down.
    EXPECT_EQ(block.size(), 4u + 2u * 12u);

    const Workload w = bertBaseWorkload();
    // Dedup collapses all blocks into 6 unique GEMM shapes.
    ASSERT_EQ(w.layers.size(), 6u);
    ASSERT_TRUE(w.hasCounts());
    // The per-head attention GEMMs occur heads * blocks times; the
    // block-level GEMMs occur once per block.
    for (std::size_t i = 0; i < w.layers.size(); ++i) {
        const std::string &name = w.layers[i].name;
        const bool perHead =
            name.find(".attn.score") != std::string::npos ||
            name.find(".attn.ctx") != std::string::npos;
        EXPECT_EQ(w.countOf(i), perHead ? 12 * 12 : 12) << name;
    }
    EXPECT_EQ(w.totalLayers(), 12 * (4 + 2 * 12));
}

TEST(Zoo, TransformerGemmsAreFcShaped)
{
    for (const Workload &w :
         {bertBaseWorkload(), bertLargeWorkload(), gpt2Workload(),
          dlrmWorkload()}) {
        for (const LayerShape &l : w.layers) {
            EXPECT_EQ(l.r, 1) << l.describe();
            EXPECT_EQ(l.s, 1) << l.describe();
            EXPECT_EQ(l.q, 1) << l.describe();
            EXPECT_EQ(l.strideW, 1) << l.describe();
            EXPECT_EQ(l.strideH, 1) << l.describe();
        }
    }
}

TEST(Zoo, MobileNetDepthwisePerGroupConvention)
{
    const Workload w = mobileNetV2Workload();
    std::size_t depthwise = 0;
    for (const LayerShape &l : w.layers) {
        if (l.name.find(".dw") == std::string::npos)
            continue;
        ++depthwise;
        // Depthwise = per-group input channels 1, k = channel count;
        // weightWords is then 9*k, exact for a 3x3 depthwise filter.
        EXPECT_EQ(l.c, 1) << l.describe();
        EXPECT_EQ(l.r, 3) << l.describe();
        EXPECT_EQ(l.s, 3) << l.describe();
        EXPECT_EQ(l.weightWords(), 9.0 * static_cast<double>(l.k))
            << l.describe();
    }
    EXPECT_GT(depthwise, 0u);
}

TEST(Zoo, DlrmGemmsAreLongAndSkinny)
{
    const Workload w = dlrmWorkload();
    for (const LayerShape &l : w.layers) {
        EXPECT_EQ(l.p, 2048) << l.describe();
        EXPECT_LE(l.c, 1024) << l.describe();
        EXPECT_LE(l.k, 1024) << l.describe();
    }
}

TEST(Zoo, AllLayersAreSaneAndInBounds)
{
    for (const Workload &w : zooWorkloads()) {
        EXPECT_FALSE(w.layers.empty()) << w.name;
        for (const LayerShape &l : w.layers) {
            EXPECT_TRUE(l.isSane()) << l.describe();
            EXPECT_FALSE(l.oversizeReason().has_value())
                << l.describe();
        }
    }
}

TEST(Zoo, WorkloadByNameFindsZooEntries)
{
    for (const Workload &w : zooWorkloads()) {
        const Workload found = workloadByName(w.name);
        EXPECT_EQ(found.name, w.name);
        EXPECT_EQ(found.layers.size(), w.layers.size());
        EXPECT_EQ(found.counts, w.counts);
        const auto tried = tryWorkloadByName(w.name);
        ASSERT_TRUE(tried.has_value()) << w.name;
        EXPECT_EQ(tried->name, w.name);
    }
}

TEST(Zoo, LayersRoundTripThroughParseFormat)
{
    for (const Workload &w : zooWorkloads()) {
        for (const LayerShape &l : w.layers) {
            const std::string line = testing::formatLayerLine(l);
            std::string error;
            const auto back = parseLayerLine(line, "dflt", &error);
            ASSERT_TRUE(back.has_value())
                << line << ": " << error;
            EXPECT_EQ(back->name, l.name) << line;
            EXPECT_TRUE(back->sameShape(l)) << line;
        }
    }
}

TEST(Zoo, WeightedMacSumEqualsCountTimesLayerMacs)
{
    // totalMacs() must be the plain sum over the reconstructed full
    // sequence, i.e. counts carry exactly the dropped duplicates.
    for (const Workload &w : zooWorkloads()) {
        double byHand = 0.0;
        for (std::size_t i = 0; i < w.layers.size(); ++i)
            byHand += static_cast<double>(w.countOf(i)) *
                      w.layers[i].macs();
        EXPECT_EQ(w.totalMacs(), byHand) << w.name;
    }
}

} // namespace
} // namespace vaesa
