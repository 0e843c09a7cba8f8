/** @file Unit tests for the latent-space DSE flows. */

#include <gtest/gtest.h>

#include <cmath>

#include "dse/bo.hh"
#include "dse/random_search.hh"
#include "fixtures.hh"
#include "vaesa/latent_dse.hh"

namespace vaesa {
namespace {

TEST(LatentObjective, BoxMatchesRadiusAndDim)
{
    VaesaFramework &fw = testing::sharedFramework();
    LatentObjective obj(fw, testing::sharedEvaluator(),
                        alexNetLayers(), 2.5);
    EXPECT_EQ(obj.dim(), fw.latentDim());
    for (double lo : obj.lowerBounds())
        EXPECT_DOUBLE_EQ(lo, -2.5);
    for (double hi : obj.upperBounds())
        EXPECT_DOUBLE_EQ(hi, 2.5);
}

TEST(LatentObjective, EvaluationMatchesManualDecode)
{
    VaesaFramework &fw = testing::sharedFramework();
    Evaluator &ev = testing::sharedEvaluator();
    LatentObjective obj(fw, ev, alexNetLayers());
    std::vector<double> z(fw.latentDim(), 0.5);
    const double score = obj.evaluate(z);
    const AcceleratorConfig config = obj.decode(z);
    const EvalResult direct =
        ev.evaluateWorkload(config, alexNetLayers());
    if (direct.valid)
        EXPECT_DOUBLE_EQ(score, direct.edp);
    else
        EXPECT_TRUE(std::isinf(score));
}

TEST(LatentObjective, MostLatentPointsDecodeValid)
{
    VaesaFramework &fw = testing::sharedFramework();
    LatentObjective obj(fw, testing::sharedEvaluator(),
                        alexNetLayers());
    Rng rng(51);
    int valid = 0;
    for (int i = 0; i < 30; ++i) {
        std::vector<double> z(fw.latentDim());
        for (double &v : z)
            v = rng.normal();
        valid += std::isfinite(obj.evaluate(z));
    }
    // The VAE was trained on valid designs only, so decoded points
    // are overwhelmingly mappable (the reconstructibility property).
    EXPECT_GT(valid, 25);
}

TEST(LatentObjective, RejectsBadArguments)
{
    VaesaFramework &fw = testing::sharedFramework();
    Evaluator &ev = testing::sharedEvaluator();
    EXPECT_DEATH(LatentObjective(fw, ev, std::vector<LayerShape>{}),
                 "at least one layer");
    EXPECT_DEATH(LatentObjective(fw, ev, alexNetLayers(), -1.0),
                 "radius");
}

TEST(VaeGd, ProducesRequestedSamples)
{
    VaesaFramework &fw = testing::sharedFramework();
    Rng rng(52);
    VaeGdOptions options;
    options.steps = 20;
    const SearchTrace trace =
        vaeGdSearch(fw, testing::sharedEvaluator(),
                    gdTestLayers()[3], 5, options, rng);
    EXPECT_EQ(trace.points.size(), 5u);
    EXPECT_TRUE(std::isfinite(trace.best()));
}

TEST(InputGdBaseline, TrainsAndSearches)
{
    const Dataset &data = testing::sharedDataset();
    TrainOptions train;
    train.epochs = 8;
    InputGdBaseline baseline(data, {48, 48}, train, 55);

    Rng rng(56);
    VaeGdOptions options;
    options.steps = 40;
    const SearchTrace trace =
        baseline.search(testing::sharedEvaluator(),
                        gdTestLayers()[2], 6, options, rng);
    EXPECT_EQ(trace.points.size(), 6u);
    EXPECT_TRUE(std::isfinite(trace.best()));
    // Optimized points stay in the unit box.
    for (const TracePoint &p : trace.points)
        for (double v : p.x) {
            EXPECT_GE(v, 0.0);
            EXPECT_LE(v, 1.0);
        }
}

TEST(InputGdBaseline, ScoreGradientMatchesFiniteDifferences)
{
    const Dataset &data = testing::sharedDataset();
    TrainOptions train;
    train.epochs = 4;
    InputGdBaseline baseline(data, {32}, train, 57);
    const auto feats = baseline.layerNormalizer().transform(
        gdTestLayers()[1].toFeatures());

    std::vector<double> x(numHwParams, 0.4);
    std::vector<double> grad;
    baseline.predictScore(x, feats, &grad);
    ASSERT_EQ(grad.size(), static_cast<std::size_t>(numHwParams));
    const double eps = 1e-6;
    for (int d = 0; d < numHwParams; ++d) {
        std::vector<double> xp = x;
        xp[d] += eps;
        std::vector<double> xm = x;
        xm[d] -= eps;
        const double numeric =
            (baseline.predictScore(xp, feats) -
             baseline.predictScore(xm, feats)) /
            (2.0 * eps);
        EXPECT_NEAR(grad[d], numeric, 1e-5);
    }
}

} // namespace
} // namespace vaesa
