/** @file Unit tests for the deterministic RNG. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "util/rng.hh"

namespace vaesa {
namespace {

TEST(Rng, SameSeedGivesSameStream)
{
    Rng a(12345);
    Rng b(12345);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsGiveDifferentStreams)
{
    Rng a(1);
    Rng b(2);
    int differing = 0;
    for (int i = 0; i < 64; ++i)
        differing += a.next() != b.next();
    EXPECT_GT(differing, 60);
}

TEST(Rng, UniformIsInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.5, 2.25);
        EXPECT_GE(u, -3.5);
        EXPECT_LT(u, 2.25);
    }
}

TEST(Rng, UniformMeanIsHalf)
{
    Rng rng(99);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, IndexStaysBelowBound)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.index(17), 17u);
}

TEST(Rng, IndexCoversAllValues)
{
    Rng rng(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.index(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NormalMomentsMatchStandardNormal)
{
    Rng rng(5);
    const int n = 200000;
    double sum = 0.0;
    double sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(Rng, NormalWithParamsShiftsAndScales)
{
    Rng rng(5);
    const int n = 100000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(10.0, 0.5);
    EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, PermutationIsAPermutation)
{
    Rng rng(21);
    const auto perm = rng.permutation(50);
    ASSERT_EQ(perm.size(), 50u);
    std::set<std::size_t> seen(perm.begin(), perm.end());
    EXPECT_EQ(seen.size(), 50u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Rng, PermutationOfZeroIsEmpty)
{
    Rng rng(21);
    EXPECT_TRUE(rng.permutation(0).empty());
}

} // namespace
} // namespace vaesa
