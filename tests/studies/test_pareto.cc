/** @file Unit tests for Pareto-front utilities. */

#include <gtest/gtest.h>

#include "studies/pareto.hh"

namespace vaesa {
namespace {

TEST(Pareto, SinglePointIsTheFront)
{
    const std::vector<BiPoint> pts{{1.0, 2.0}};
    EXPECT_EQ(paretoFront(pts), std::vector<std::size_t>{0});
}

TEST(Pareto, DominatedPointsExcluded)
{
    const std::vector<BiPoint> pts{
        {1.0, 5.0}, // front
        {2.0, 6.0}, // dominated by (1,5)
        {3.0, 2.0}, // front
        {3.5, 2.0}, // dominated by (3,2)
        {5.0, 1.0}, // front
    };
    const std::vector<std::size_t> expect{0, 2, 4};
    EXPECT_EQ(paretoFront(pts), expect);
}

TEST(Pareto, FrontSortedByFirstCoordinate)
{
    const std::vector<BiPoint> pts{
        {5.0, 1.0}, {1.0, 5.0}, {3.0, 3.0}};
    const auto front = paretoFront(pts);
    ASSERT_EQ(front.size(), 3u);
    EXPECT_LT(pts[front[0]].first, pts[front[1]].first);
    EXPECT_LT(pts[front[1]].first, pts[front[2]].first);
}

TEST(Pareto, DuplicatesKeepFirstOccurrence)
{
    const std::vector<BiPoint> pts{{1.0, 1.0}, {1.0, 1.0}};
    EXPECT_EQ(paretoFront(pts), std::vector<std::size_t>{0});
}

TEST(Pareto, TiesOnOneAxis)
{
    // Same latency, different energy: only the lower-energy one is
    // non-dominated.
    const std::vector<BiPoint> pts{{1.0, 3.0}, {1.0, 2.0}};
    EXPECT_EQ(paretoFront(pts), std::vector<std::size_t>{1});
}

TEST(Pareto, IsDominated)
{
    const std::vector<BiPoint> pts{{1.0, 5.0}, {5.0, 1.0}};
    EXPECT_TRUE(isDominated({2.0, 6.0}, pts));
    EXPECT_TRUE(isDominated({1.0, 6.0}, pts)); // tie on x
    EXPECT_FALSE(isDominated({0.5, 6.0}, pts));
    EXPECT_FALSE(isDominated({3.0, 3.0}, pts));
    EXPECT_FALSE(isDominated({1.0, 5.0}, pts)); // equal, not dominated
}

TEST(Pareto, HypervolumeOfSinglePoint)
{
    // Rectangle between point and reference.
    EXPECT_DOUBLE_EQ(hypervolume({{1.0, 1.0}}, {3.0, 4.0}),
                     2.0 * 3.0);
}

TEST(Pareto, HypervolumeOfStaircase)
{
    // Points (1,3), (2,2), (3,1) with reference (4,4):
    // strips: (2-1)*(4-3) + (3-2)*(4-2) + (4-3)*(4-1) = 1+2+3 = 6.
    const std::vector<BiPoint> front{{1.0, 3.0}, {2.0, 2.0},
                                     {3.0, 1.0}};
    EXPECT_DOUBLE_EQ(hypervolume(front, {4.0, 4.0}), 6.0);
}

TEST(Pareto, HypervolumeIgnoresDominatedPoints)
{
    const std::vector<BiPoint> with_dup{
        {1.0, 3.0}, {2.0, 2.0}, {3.0, 1.0}, {2.5, 3.5}};
    EXPECT_DOUBLE_EQ(hypervolume(with_dup, {4.0, 4.0}), 6.0);
}

TEST(Pareto, HypervolumeEmptyIsZero)
{
    EXPECT_DOUBLE_EQ(hypervolume({}, {1.0, 1.0}), 0.0);
}

TEST(Pareto, HypervolumeRejectsBadReference)
{
    EXPECT_DEATH(hypervolume({{2.0, 2.0}}, {1.0, 3.0}),
                 "reference");
}

TEST(Pareto, MoreFrontPointsNeverShrinkHypervolume)
{
    std::vector<BiPoint> pts{{1.0, 3.0}, {3.0, 1.0}};
    const double before = hypervolume(pts, {5.0, 5.0});
    pts.push_back({2.0, 1.5});
    const double after = hypervolume(pts, {5.0, 5.0});
    EXPECT_GE(after, before);
}

} // namespace
} // namespace vaesa
