/** @file Unit tests for Objective, SearchTrace, and the input-space
 *  objective. */

#include <gtest/gtest.h>

#include <cmath>

#include "dse/objective.hh"
#include "util/rng.hh"
#include "workload/networks.hh"

namespace vaesa {
namespace {

/** Inverse of decodeBoxPoint: grid indices normalized to [0,1]. */
std::vector<double>
encodeBoxPoint(const AcceleratorConfig &config)
{
    const DesignSpace &ds = designSpace();
    const auto idx = ds.toIndices(config);
    std::vector<double> x(numHwParams);
    for (int p = 0; p < numHwParams; ++p) {
        const auto count =
            static_cast<double>(ds.count(static_cast<HwParam>(p)));
        x[p] = count > 1.0
                   ? static_cast<double>(idx[p]) / (count - 1.0)
                   : 0.0;
    }
    return x;
}

TEST(SearchTrace, BestTracksMinimum)
{
    SearchTrace trace;
    trace.add({0.0}, 5.0);
    trace.add({1.0}, 2.0);
    trace.add({2.0}, 7.0);
    EXPECT_DOUBLE_EQ(trace.best(), 2.0);
    EXPECT_DOUBLE_EQ(trace.bestAfter(1), 5.0);
    EXPECT_DOUBLE_EQ(trace.bestAfter(100), 2.0);
    EXPECT_EQ(trace.bestPoint(), std::vector<double>{1.0});
}

TEST(SearchTrace, EmptyTraceHasInfiniteBest)
{
    SearchTrace trace;
    EXPECT_TRUE(std::isinf(trace.best()));
    EXPECT_TRUE(trace.bestPoint().empty());
}

TEST(SearchTrace, BestCurveIsMonotone)
{
    SearchTrace trace;
    for (double v : {4.0, 6.0, 3.0, 3.5, 1.0})
        trace.add({v}, v);
    const std::vector<double> expect{4.0, 4.0, 3.0, 3.0, 1.0};
    EXPECT_EQ(trace.bestCurve(), expect);
}

TEST(SearchTrace, SamplesToReach)
{
    SearchTrace trace;
    trace.add({0.0}, 5.0);
    trace.add({0.0}, 3.0);
    trace.add({0.0}, 1.0);
    EXPECT_EQ(trace.samplesToReach(3.0), 2u);
    EXPECT_EQ(trace.samplesToReach(0.5), 0u);
    EXPECT_EQ(trace.samplesToReach(10.0), 1u);
}

TEST(SearchTrace, InfiniteValuesIgnoredByBestPoint)
{
    SearchTrace trace;
    trace.add({1.0}, invalidScore);
    trace.add({2.0}, 4.0);
    EXPECT_DOUBLE_EQ(trace.best(), 4.0);
    EXPECT_EQ(trace.bestPoint(), std::vector<double>{2.0});
}

class InputObjectiveTest : public ::testing::Test
{
  protected:
    Evaluator evaluator;
    InputSpaceObjective objective{evaluator, alexNetLayers()};
};

TEST_F(InputObjectiveTest, BoxIsUnitCube)
{
    EXPECT_EQ(objective.dim(),
              static_cast<std::size_t>(numHwParams));
    for (double lo : objective.lowerBounds())
        EXPECT_DOUBLE_EQ(lo, 0.0);
    for (double hi : objective.upperBounds())
        EXPECT_DOUBLE_EQ(hi, 1.0);
}

TEST_F(InputObjectiveTest, CornersDecodeToGridExtremes)
{
    const AcceleratorConfig lo =
        objective.decode(std::vector<double>(numHwParams, 0.0));
    EXPECT_EQ(lo.numPes, 4);
    EXPECT_EQ(lo.numMacs, 64);
    const AcceleratorConfig hi =
        objective.decode(std::vector<double>(numHwParams, 1.0));
    EXPECT_EQ(hi.numPes, 64);
    EXPECT_EQ(hi.numMacs, 4096);
    EXPECT_EQ(hi.globalBufBytes, 256 * 1024);
}

TEST_F(InputObjectiveTest, EncodeDecodeRoundTrip)
{
    Rng rng(1);
    for (int trial = 0; trial < 20; ++trial) {
        const AcceleratorConfig config =
            designSpace().randomConfig(rng);
        const AcceleratorConfig back =
            objective.decode(encodeBoxPoint(config));
        EXPECT_EQ(back, config);
    }
}

TEST_F(InputObjectiveTest, OutOfBoxPointsAreClamped)
{
    std::vector<double> x(numHwParams, 2.0);
    const AcceleratorConfig config = objective.decode(x);
    EXPECT_EQ(config.numPes, 64);
}

TEST_F(InputObjectiveTest, EvaluationMatchesDirectEvaluator)
{
    Rng rng(2);
    const AcceleratorConfig config = designSpace().randomConfig(rng);
    const double score = objective.evaluate(encodeBoxPoint(config));
    const EvalResult direct =
        evaluator.evaluateWorkload(config, alexNetLayers());
    if (direct.valid)
        EXPECT_DOUBLE_EQ(score, direct.edp);
    else
        EXPECT_TRUE(std::isinf(score));
}

TEST(InputObjective, RejectsEmptyWorkload)
{
    Evaluator ev;
    EXPECT_DEATH(InputSpaceObjective(ev, std::vector<LayerShape>{}),
                 "at least one layer");
}

TEST(Metric, ValueExtraction)
{
    EvalResult r;
    r.valid = true;
    r.latencyCycles = 10.0;
    r.energyPj = 5.0;
    r.edp = 50.0;
    EXPECT_DOUBLE_EQ(metricValue(r, Metric::Edp), 50.0);
    EXPECT_DOUBLE_EQ(metricValue(r, Metric::Latency), 10.0);
    EXPECT_DOUBLE_EQ(metricValue(r, Metric::Energy), 5.0);
    r.valid = false;
    EXPECT_TRUE(std::isinf(metricValue(r, Metric::Edp)));
}

TEST(Metric, Names)
{
    EXPECT_STREQ(metricName(Metric::Edp), "EDP");
    EXPECT_STREQ(metricName(Metric::Latency), "latency");
    EXPECT_STREQ(metricName(Metric::Energy), "energy");
}

TEST(Metric, ObjectiveMinimizesSelectedQuantity)
{
    // The same point scores differently under different metrics,
    // and each matches the direct evaluator output.
    Evaluator ev;
    const auto layers = alexNetLayers();
    InputSpaceObjective edp_obj(ev, layers, Metric::Edp);
    InputSpaceObjective lat_obj(ev, layers, Metric::Latency);
    InputSpaceObjective en_obj(ev, layers, Metric::Energy);

    Rng rng(5);
    const AcceleratorConfig config = designSpace().randomConfig(rng);
    const auto x = encodeBoxPoint(config);
    const EvalResult direct = ev.evaluateWorkload(config, layers);
    if (!direct.valid)
        GTEST_SKIP() << "random config unmappable";
    EXPECT_DOUBLE_EQ(edp_obj.evaluate(x), direct.edp);
    EXPECT_DOUBLE_EQ(lat_obj.evaluate(x), direct.latencyCycles);
    EXPECT_DOUBLE_EQ(en_obj.evaluate(x), direct.energyPj);
    EXPECT_NEAR(edp_obj.evaluate(x),
                lat_obj.evaluate(x) * en_obj.evaluate(x),
                1e-6 * direct.edp);
}

TEST(Metric, LatencyOptimumDiffersFromEnergyOptimum)
{
    // Minimizing latency favours big parallel arrays; minimizing
    // energy favours small ones. Verify the two metrics disagree on
    // which of two designs is better.
    Evaluator ev;
    const auto layers = resNet50Layers();
    AcceleratorConfig big;
    big.numPes = 64;
    big.numMacs = 4096;
    big.accumBufBytes = 96 * 1024;
    big.weightBufBytes = 4 * 1024 * 1024;
    big.inputBufBytes = 256 * 1024;
    big.globalBufBytes = 256 * 1024;
    AcceleratorConfig small;
    small.numPes = 4;
    small.numMacs = 64;
    small.accumBufBytes = 768;
    small.weightBufBytes = 64 * 1024;
    small.inputBufBytes = 8 * 1024;
    small.globalBufBytes = 64 * 1024;

    const EvalResult r_big = ev.evaluateWorkload(big, layers);
    const EvalResult r_small = ev.evaluateWorkload(small, layers);
    ASSERT_TRUE(r_big.valid);
    ASSERT_TRUE(r_small.valid);
    EXPECT_LT(r_big.latencyCycles, r_small.latencyCycles);
    EXPECT_LT(r_small.energyPj, r_big.energyPj);
}

} // namespace
} // namespace vaesa
