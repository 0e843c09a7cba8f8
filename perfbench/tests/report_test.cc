#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "report.hh"

namespace perfbench {
namespace {

std::vector<double>
oneTo(std::size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

TEST(Percentile, NeedsTenSamplesBeyond)
{
    EXPECT_TRUE(percentile(oneTo(20), 0.5));
    EXPECT_TRUE(percentile(oneTo(100), 0.9));
    EXPECT_FALSE(percentile(oneTo(19), 0.5));
    EXPECT_FALSE(percentile(oneTo(99), 0.9));
    EXPECT_FALSE(percentile(oneTo(999), 0.99));
    EXPECT_TRUE(percentile(oneTo(1000), 0.99));
}

TEST(Percentile, NearestRankValues)
{
    EXPECT_EQ(*percentile(oneTo(100), 0.9), 90.0);
    EXPECT_EQ(*percentile(oneTo(20), 0.5), 10.0);
    EXPECT_EQ(*percentile(oneTo(1000), 0.99), 990.0);
    EXPECT_EQ(samplesBeyond(100, 0.9), 10u);
    EXPECT_EQ(samplesBeyond(0, 0.5), 0u);
}

TEST(Percentile, OrderDoesNotMatter)
{
    std::vector<double> v = oneTo(200);
    std::reverse(v.begin(), v.end());
    EXPECT_EQ(*percentile(v, 0.9), 180.0);
}

TEST(Percentile, RejectsOutOfRangeQuantile)
{
    EXPECT_FALSE(percentile(oneTo(1000), 1.5));
    EXPECT_FALSE(percentile(oneTo(1000), -0.1));
}

TEST(OpTally, FailuresCountAsFailedAndMissTheLimit)
{
    OpTally t;
    for (int i = 0; i < 90; ++i)
        t.success(1.0);
    for (int i = 0; i < 10; ++i)
        t.failure();
    EXPECT_EQ(t.attempted(), 100u);
    EXPECT_EQ(t.failed(), 10u);
    EXPECT_DOUBLE_EQ(t.failFraction(), 0.1);
    // The failed tenth sits beyond p90 as +inf: no limit is met by it.
    EXPECT_DOUBLE_EQ(t.withinLimit(1e9), 0.9);
    EXPECT_EQ(*t.percentileMs(0.9), 1.0);
    t.failure();
    EXPECT_TRUE(std::isinf(*t.percentileMs(0.9)));
    EXPECT_EQ(t.successMs().size(), 90u);
}

TEST(OpTally, MergeAddsBothSides)
{
    OpTally a, b;
    a.success(2.0);
    b.failure();
    b.success(3.0);
    a.merge(b);
    EXPECT_EQ(a.attempted(), 3u);
    EXPECT_EQ(a.failed(), 1u);
}

TEST(MetricName, MatchesTheAllowedAlphabet)
{
    EXPECT_TRUE(validMetricName("op_p50_ms"));
    EXPECT_TRUE(validMetricName("serve.ping_rtt_us"));
    EXPECT_TRUE(validMetricName("a-b.c_d9"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("_leading"));
    EXPECT_FALSE(validMetricName(".leading"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("slash/no"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
    EXPECT_TRUE(validUnit("1/s"));
    EXPECT_TRUE(validUnit("GFLOP/s"));
    EXPECT_FALSE(validUnit("per second"));
}

TEST(Result, BadMetricsMakeTheRunIncorrect)
{
    Result r;
    r.add("ok_metric", 1.5, "ms");
    EXPECT_TRUE(r.correct());
    r.add("bad name", 1.0, "ms");
    EXPECT_FALSE(r.correct());

    Result dup;
    dup.add("x", 1.0, "s");
    dup.add("x", 2.0, "s");
    EXPECT_FALSE(dup.correct());

    Result inf;
    inf.add("x", std::numeric_limits<double>::infinity(), "s");
    EXPECT_FALSE(inf.correct());
}

TEST(Result, JsonHasExactlyTheFourKeys)
{
    Result r;
    r.attempted = 3;
    r.failed = 1;
    r.add("setup_s", 0.25, "s");
    EXPECT_EQ(r.json(),
              "{\"correct\": true, \"attempted\": 3, \"failed\": 1, "
              "\"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": "
              "\"s\"}}}");
}

} // namespace
} // namespace perfbench
