/** @file Unit tests for the Mapping representation. */

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "costmodel/mapping.hh"
#include "util/rng.hh"

namespace vaesa {
namespace {

LayerShape
smallLayer()
{
    LayerShape l;
    l.name = "unit.conv";
    l.r = 3;
    l.s = 3;
    l.p = 8;
    l.q = 8;
    l.c = 16;
    l.k = 32;
    return l;
}

TEST(Mapping, LayerDimsOrder)
{
    const auto dims = layerDims(smallLayer());
    EXPECT_EQ(dims[DimR], 3);
    EXPECT_EQ(dims[DimS], 3);
    EXPECT_EQ(dims[DimP], 8);
    EXPECT_EQ(dims[DimQ], 8);
    EXPECT_EQ(dims[DimC], 16);
    EXPECT_EQ(dims[DimK], 32);
}

TEST(Mapping, ArrayTileCoversSpatialK)
{
    Mapping m;
    m.spatialK = 4;
    m.tilePe = {3, 3, 2, 2, 8, 2};
    EXPECT_EQ(m.arrayTilePe(DimK), 8);
    EXPECT_EQ(m.arrayTilePe(DimC), 8);
    EXPECT_EQ(m.arrayTilePe(DimP), 2);
}

TEST(Mapping, TileWordCounts)
{
    const LayerShape l = smallLayer();
    Mapping m;
    m.tilePe = {3, 3, 2, 2, 8, 4};
    EXPECT_EQ(m.weightTileWords(), 3 * 3 * 8 * 4);
    EXPECT_EQ(m.psumTileWords(), 2 * 2 * 4);
    // Input tile with halo: ((2-1)*1+3) x ((2-1)*1+3) x 8.
    EXPECT_EQ(m.inputTileWords(l), 4 * 4 * 8);
}

TEST(Mapping, InputTileAccountsForStride)
{
    LayerShape l = smallLayer();
    l.strideW = 2;
    l.strideH = 2;
    Mapping m;
    m.tilePe = {3, 3, 4, 4, 1, 1};
    // ((4-1)*2+3)^2 * 1 = 81.
    EXPECT_EQ(m.inputTileWords(l), 81);
}

TEST(Mapping, GlobalBufferTileWords)
{
    const LayerShape l = smallLayer();
    Mapping m;
    m.tileGb = {3, 3, 8, 8, 16, 32};
    EXPECT_EQ(m.inputGbTileWords(l), 10 * 10 * 16);
    EXPECT_EQ(m.outputGbTileWords(), 8 * 8 * 32);
}

TEST(Mapping, HugeTileWordCountsDoNotOverflow)
{
    // Regression: the word counts used to be int64 products, so a
    // corner-of-design-space tile (four ~2^20 extents) wrapped
    // negative and "fit" every buffer. In double, each factor is
    // widened before multiplying: the product is exact (each factor
    // is far below 2^53 and the true product below 2^80 keeps 53
    // significant bits here by construction of the powers of two)
    // and, crucially, positive and enormous.
    const std::int64_t big = std::int64_t{1} << 20; // 2^20
    Mapping m;
    m.tilePe = {big, big, big, big, big, big};
    m.tileGb = {big, big, big, big, big, big};

    const double words = m.weightTileWords(); // (2^20)^4 = 2^80
    EXPECT_GT(words, 0.0);
    EXPECT_EQ(words, std::pow(2.0, 80.0));

    const double psum = m.psumTileWords(); // 2^60
    EXPECT_GT(psum, 0.0);
    EXPECT_EQ(psum, std::pow(2.0, 60.0));

    const double out_gb = m.outputGbTileWords(); // 2^60
    EXPECT_GT(out_gb, 0.0);
    EXPECT_EQ(out_gb, std::pow(2.0, 60.0));

    LayerShape l = smallLayer();
    l.strideW = 2;
    l.strideH = 2;
    EXPECT_GT(m.inputTileWords(l), std::pow(2.0, 60.0));
    EXPECT_GT(m.inputGbTileWords(l), std::pow(2.0, 60.0));
}

TEST(Mapping, WordCountsNonDecreasingInEveryTile)
{
    // The scheduler's greedy drops a dimension for good once its
    // doubling does not fit. That is exact only if no word count ever
    // falls when any tile extent grows, rounding included.
    Rng rng(13);
    const auto range = [&rng](std::int64_t lo, std::int64_t hi) {
        return lo + static_cast<std::int64_t>(rng.index(hi - lo + 1));
    };
    const auto counts = [](const Mapping &m, const LayerShape &l) {
        return std::array<double, 5>{
            m.weightTileWords(), m.inputTileWords(l), m.psumTileWords(),
            m.inputGbTileWords(l), m.outputGbTileWords()};
    };
    for (int trial = 0; trial < 2000; ++trial) {
        LayerShape l = smallLayer();
        l.strideW = range(1, 4);
        l.strideH = range(1, 4);
        Mapping m;
        for (int d = 0; d < numDims; ++d) {
            // Up to 2^20: large enough that products round.
            m.tilePe[d] = range(1, 64) << range(0, 14);
            m.tileGb[d] = range(1, 64) << range(0, 14);
        }
        const auto before = counts(m, l);
        for (auto level : {&Mapping::tilePe, &Mapping::tileGb}) {
            for (int d = 0; d < numDims; ++d) {
                Mapping grown = m;
                (grown.*level)[d] *= 2;
                const auto after = counts(grown, l);
                for (std::size_t i = 0; i < after.size(); ++i)
                    ASSERT_GE(after[i], before[i])
                        << "count " << i << " fell doubling "
                        << dimName(d) << " of " << m.describe();
            }
        }
    }
}

TEST(Mapping, DescribeMentionsTiles)
{
    Mapping m;
    m.spatialK = 8;
    const std::string d = m.describe();
    EXPECT_NE(d.find("spatialK=8"), std::string::npos);
    EXPECT_NE(d.find("tilePe"), std::string::npos);
}

TEST(Mapping, DimNames)
{
    EXPECT_STREQ(dimName(DimR), "R");
    EXPECT_STREQ(dimName(DimK), "K");
    EXPECT_DEATH(dimName(6), "bad dimension");
}

} // namespace
} // namespace vaesa
