/** @file Unit tests for dataset construction. */

#include <gtest/gtest.h>

#include <cmath>

#include "fixtures.hh"

namespace vaesa {
namespace {

TEST(Dataset, BuilderGathersRequestedSamples)
{
    const Dataset &data = testing::sharedDataset();
    EXPECT_EQ(data.size(), 1500u);
    EXPECT_EQ(data.layerPool().size(), 66u);
}

TEST(Dataset, FeaturesAreNormalized)
{
    const Dataset &data = testing::sharedDataset();
    const Matrix &hw = data.hwFeatures();
    const Matrix &layer = data.layerFeatures();
    for (std::size_t r = 0; r < data.size(); ++r) {
        for (std::size_t c = 0; c < hw.cols(); ++c) {
            EXPECT_GE(hw(r, c), 0.0);
            EXPECT_LT(hw(r, c), 1.0);
        }
        for (std::size_t c = 0; c < layer.cols(); ++c) {
            EXPECT_GE(layer(r, c), -1e-9);
            EXPECT_LT(layer(r, c), 1.0);
        }
    }
}

TEST(Dataset, LabelsAreNormalized)
{
    const Dataset &data = testing::sharedDataset();
    for (std::size_t r = 0; r < data.size(); ++r) {
        EXPECT_GE(data.latencyLabels()(r, 0), 0.0);
        EXPECT_LT(data.latencyLabels()(r, 0), 1.0);
        EXPECT_GE(data.energyLabels()(r, 0), 0.0);
        EXPECT_LT(data.energyLabels()(r, 0), 1.0);
    }
}

TEST(Dataset, MatrixShapesMatchSampleCount)
{
    const Dataset &data = testing::sharedDataset();
    EXPECT_EQ(data.hwFeatures().rows(), data.size());
    EXPECT_EQ(data.hwFeatures().cols(),
              static_cast<std::size_t>(numHwParams));
    EXPECT_EQ(data.layerFeatures().cols(),
              static_cast<std::size_t>(numLayerFeatures));
    EXPECT_EQ(data.latencyLabels().cols(), 1u);
    EXPECT_EQ(data.energyLabels().cols(), 1u);
}

TEST(Dataset, SamplesAreReproducibleAndValid)
{
    // Rebuilding with the same seed gives identical samples, and the
    // recorded labels match a fresh evaluation.
    Evaluator &ev = testing::sharedEvaluator();
    std::vector<LayerShape> pool = alexNetLayers();
    Rng rng_a(5);
    Rng rng_b(5);
    const Dataset a = DatasetBuilder(ev, pool).build(50, rng_a);
    const Dataset b = DatasetBuilder(ev, pool).build(50, rng_b);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.samples()[i].config, b.samples()[i].config);
        EXPECT_DOUBLE_EQ(a.samples()[i].logLatency,
                         b.samples()[i].logLatency);
    }

    for (std::size_t i = 0; i < 10; ++i) {
        const DataSample &s = a.samples()[i];
        const EvalResult r = ev.evaluateLayer(
            s.config, pool[s.layerIndex]);
        ASSERT_TRUE(r.valid);
        EXPECT_NEAR(std::exp2(s.logLatency), r.latencyCycles,
                    1e-6 * r.latencyCycles);
        EXPECT_NEAR(std::exp2(s.logEnergy), r.energyPj,
                    1e-6 * r.energyPj);
    }
}

TEST(Dataset, HwNormalizerUsesGridBounds)
{
    const Dataset &data = testing::sharedDataset();
    const auto lo = designSpace().featureLowerBounds();
    const auto origin = data.hwNormalizer().inverse(
        std::vector<double>(numHwParams, 0.0));
    for (int p = 0; p < numHwParams; ++p)
        EXPECT_DOUBLE_EQ(origin[p], lo[p]);
}

TEST(Dataset, WeightedDrawsBiasTowardHeavyLayers)
{
    Evaluator &ev = testing::sharedEvaluator();
    std::vector<LayerShape> pool = alexNetLayers();
    DatasetBuilder builder(ev, pool);
    // Layer 0 carries ~99% of the traffic weight.
    std::vector<double> weights(pool.size(), 1.0);
    weights[0] = 100.0 * static_cast<double>(pool.size() - 1);
    builder.setLayerWeights(weights);

    Rng rng(11);
    const Dataset data = builder.build(300, rng);
    std::size_t heavy = 0;
    for (const DataSample &s : data.samples())
        heavy += s.layerIndex == 0;
    // Expectation ~99%; anywhere above 80% proves the bias without
    // being flaky about mapping-validity rejection differences.
    EXPECT_GT(heavy, data.size() * 8 / 10);
}

TEST(Dataset, EmptyWeightsKeepTheUniformDrawBitIdentical)
{
    Evaluator &ev = testing::sharedEvaluator();
    std::vector<LayerShape> pool = alexNetLayers();

    Rng rng_a(13);
    const Dataset plain = DatasetBuilder(ev, pool).build(60, rng_a);

    DatasetBuilder cleared(ev, pool);
    cleared.setLayerWeights(
        std::vector<double>(pool.size(), 3.0));
    cleared.setLayerWeights({}); // clearing restores uniform draws
    Rng rng_b(13);
    const Dataset reset = cleared.build(60, rng_b);

    ASSERT_EQ(plain.size(), reset.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain.samples()[i].config,
                  reset.samples()[i].config);
        EXPECT_EQ(plain.samples()[i].layerIndex,
                  reset.samples()[i].layerIndex);
        EXPECT_EQ(plain.samples()[i].logLatency,
                  reset.samples()[i].logLatency);
    }
}

TEST(Dataset, BadLayerWeightsAreFatal)
{
    Evaluator ev;
    std::vector<LayerShape> pool = alexNetLayers();
    DatasetBuilder builder(ev, pool);
    EXPECT_DEATH(builder.setLayerWeights({1.0, 2.0}),
                 "weights for");
    std::vector<double> zero(pool.size(), 1.0);
    zero[3] = 0.0;
    EXPECT_DEATH(builder.setLayerWeights(zero),
                 "positive and finite");
    std::vector<double> nan(pool.size(), 1.0);
    nan[0] = std::nan("");
    EXPECT_DEATH(builder.setLayerWeights(nan),
                 "positive and finite");
}

TEST(Dataset, EmptyPoolIsFatal)
{
    Evaluator ev;
    EXPECT_DEATH(DatasetBuilder(ev, {}), "non-empty layer pool");
}

} // namespace
} // namespace vaesa
