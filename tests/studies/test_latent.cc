/**
 * @file
 * Unit tests for the latent studies: correlation, predictor
 * read-outs, dataset extremes, the interpolation study and the GD
 * step study.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "../vaesa/fixtures.hh"
#include "studies/latent.hh"

namespace vaesa {
namespace {

TEST(Stats, CorrelationOfLinearData)
{
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    std::vector<double> ys;
    for (double x : xs)
        ys.push_back(3.0 * x - 1.0);
    EXPECT_NEAR(correlation(xs, ys), 1.0, 1e-12);
    for (double &y : ys)
        y = -y;
    EXPECT_NEAR(correlation(xs, ys), -1.0, 1e-12);
}

TEST(Stats, CorrelationOfConstantIsZero)
{
    EXPECT_DOUBLE_EQ(correlation({1.0, 1.0, 1.0}, {1.0, 2.0, 3.0}),
                     0.0);
    EXPECT_DOUBLE_EQ(correlation({1.0}, {2.0}), 0.0);
}

TEST(Stats, CorrelationLengthMismatchPanics)
{
    EXPECT_DEATH(correlation({1.0, 2.0}, {1.0}), "equal-length");
}

TEST(Dataset, EdpHelpersAreConsistent)
{
    const Dataset &data = testing::sharedDataset();
    const std::size_t best = bestSampleIndex(data);
    const std::size_t worst = worstSampleIndex(data);
    EXPECT_LE(sampleEdp(data, best), sampleEdp(data, worst));
    for (std::size_t i = 0; i < data.size(); i += 97) {
        EXPECT_GE(sampleEdp(data, i), sampleEdp(data, best));
        EXPECT_LE(sampleEdp(data, i), sampleEdp(data, worst));
    }
    const DataSample &s = data.samples()[0];
    EXPECT_NEAR(sampleEdp(data, 0),
                std::exp2(s.logLatency) * std::exp2(s.logEnergy),
                1e-6 * sampleEdp(data, 0));
}

TEST(Dataset, SampleEdpOutOfRangePanics)
{
    const Dataset &data = testing::sharedDataset();
    EXPECT_DEATH(sampleEdp(data, data.size()), "out of range");
}

TEST(Framework, PredictorsProducePositivePredictions)
{
    VaesaFramework &fw = testing::sharedFramework();
    const auto feats =
        fw.normalizedLayerFeatures(resNet50Layers()[2]);
    std::vector<double> z(fw.latentDim(), 0.0);
    EXPECT_GT(predictedLatency(fw, z, feats), 0.0);
    EXPECT_GT(predictedEnergy(fw, z, feats), 0.0);
    EXPECT_NEAR(predictedEdp(fw, z, feats),
                predictedLatency(fw, z, feats) *
                    predictedEnergy(fw, z, feats),
                1e-6 * predictedEdp(fw, z, feats));
}

TEST(VaeGd, DescentImprovesOverStartDecodes)
{
    // Decoding after GD should on average beat decoding the raw
    // random starts (the Figure 13 effect, in miniature).
    VaesaFramework &fw = testing::sharedFramework();
    Evaluator &ev = testing::sharedEvaluator();
    const LayerShape layer = gdTestLayers()[4];

    Rng rng_a(53);
    VaeGdOptions no_steps;
    no_steps.steps = 0;
    const auto start_means = gdStepStudy(
        fw, ev, layer, 20, {0, 60}, no_steps, rng_a);
    ASSERT_EQ(start_means.size(), 2u);
    ASSERT_TRUE(std::isfinite(start_means[0]));
    ASSERT_TRUE(std::isfinite(start_means[1]));
    EXPECT_LT(start_means[1], start_means[0]);
}

TEST(VaeGd, StepStudyMarksAreOrderedByConstruction)
{
    VaesaFramework &fw = testing::sharedFramework();
    Rng rng(54);
    VaeGdOptions options;
    const auto means =
        gdStepStudy(fw, testing::sharedEvaluator(),
                    gdTestLayers()[0], 10, {0, 30, 90}, options, rng);
    ASSERT_EQ(means.size(), 3u);
    for (double m : means)
        EXPECT_TRUE(std::isfinite(m));
}

TEST(VaeGd, StepStudyMarksShareTheirStarts)
{
    // Every mark descends from the same starts, and the generator
    // ends where one search over those starts leaves it.
    VaesaFramework &fw = testing::sharedFramework();
    Evaluator &ev = testing::sharedEvaluator();
    const LayerShape layer = gdTestLayers()[2];
    VaeGdOptions options;
    options.steps = 20;

    Rng rng(55);
    const auto means = gdStepStudy(fw, ev, layer, 6, {20, 0, 20},
                                   options, rng);
    ASSERT_EQ(means.size(), 3u);
    EXPECT_EQ(means[0], means[2]);

    Rng ref(55);
    const SearchTrace trace = vaeGdSearch(fw, ev, layer, 6, options, ref);
    double log_sum = 0.0;
    for (const TracePoint &point : trace.points)
        log_sum += std::log(point.value);
    EXPECT_EQ(means[0], std::exp(log_sum / 6.0));
    EXPECT_EQ(rng.uniform(), ref.uniform());
    EXPECT_EQ(rng.normal(), ref.normal());
}

TEST(Interpolation, WalksWorstToBestWithOvershoot)
{
    VaesaFramework &fw = testing::sharedFramework();
    const Dataset &data = testing::sharedDataset();
    const auto points = interpolationStudy(
        fw, testing::sharedEvaluator(), data, resNet50Layers()[2],
        10, 4);
    ASSERT_EQ(points.size(), 15u);
    EXPECT_DOUBLE_EQ(points.front().t, 0.0);
    EXPECT_NEAR(points[10].t, 1.0, 1e-12);
    EXPECT_GT(points.back().t, 1.0);
    for (const InterpolationPoint &pt : points) {
        EXPECT_EQ(pt.z.size(), fw.latentDim());
        EXPECT_GT(pt.predictedEdp, 0.0);
    }
}

TEST(Interpolation, EndpointsFollowEncodedExtremes)
{
    VaesaFramework &fw = testing::sharedFramework();
    const Dataset &data = testing::sharedDataset();
    const auto points = interpolationStudy(
        fw, testing::sharedEvaluator(), data, resNet50Layers()[2],
        5, 0);
    const auto z0 = fw.encodeConfig(
        data.samples()[worstSampleIndex(data)].config);
    for (std::size_t d = 0; d < z0.size(); ++d)
        EXPECT_NEAR(points.front().z[d], z0[d], 1e-9);
}

TEST(Interpolation, ZeroSegmentsIsFatal)
{
    VaesaFramework &fw = testing::sharedFramework();
    EXPECT_DEATH(
        interpolationStudy(fw, testing::sharedEvaluator(),
                           testing::sharedDataset(),
                           resNet50Layers()[0], 0, 0),
        "at least one segment");
}

} // namespace
} // namespace vaesa
