/** @file Unit tests for summary statistics. */

#include <gtest/gtest.h>

#include <cmath>

#include "util/stats.hh"

namespace vaesa {
namespace {

TEST(Stats, MeanAndStddev)
{
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(xs), 2.5);
    EXPECT_NEAR(stddev(xs), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, MeanOfEmptyIsZero)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, StddevUndersampledIsNan)
{
    EXPECT_TRUE(std::isnan(stddev({})));
    EXPECT_TRUE(std::isnan(stddev({5.0})));
}

TEST(Stats, GeomeanOfPowers)
{
    EXPECT_NEAR(geomean({1.0, 4.0, 16.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({8.0}), 8.0, 1e-12);
}

TEST(Stats, GeomeanRejectsNonPositive)
{
    EXPECT_DEATH(geomean({1.0, 0.0}), "positive");
}

TEST(Stats, PercentileEndpoints)
{
    const std::vector<double> xs{5.0, 1.0, 3.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
}

TEST(Stats, PercentileInterpolates)
{
    const std::vector<double> xs{0.0, 10.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 2.5);
}

class PercentileSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(PercentileSweep, BoundedByExtrema)
{
    const std::vector<double> xs{4.0, -2.0, 9.5, 0.0, 3.0, 3.0};
    const double p = percentile(xs, GetParam());
    EXPECT_GE(p, -2.0);
    EXPECT_LE(p, 9.5);
}

INSTANTIATE_TEST_SUITE_P(Quantiles, PercentileSweep,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75,
                                           0.9, 0.99, 1.0));

} // namespace
} // namespace vaesa
