/** @file Unit tests for the Linear layer. */

#include <gtest/gtest.h>

#include "gradcheck.hh"
#include "nn/linear.hh"
#include "util/rng.hh"

namespace vaesa::nn {
namespace {

TEST(Linear, ForwardComputesAffine)
{
    Rng rng(1);
    Linear layer(2, 3, rng);
    // Set known weights: W (3x2), b (1x3).
    layer.weight().value = Matrix(3, 2, {1, 2, 3, 4, 5, 6});
    layer.bias().value = Matrix(1, 3, {0.5, -0.5, 1.0});

    Matrix x(1, 2, {1.0, 2.0});
    const Matrix y = layer.forward(x);
    ASSERT_EQ(y.rows(), 1u);
    ASSERT_EQ(y.cols(), 3u);
    EXPECT_DOUBLE_EQ(y(0, 0), 1.0 * 1 + 2.0 * 2 + 0.5);
    EXPECT_DOUBLE_EQ(y(0, 1), 1.0 * 3 + 2.0 * 4 - 0.5);
    EXPECT_DOUBLE_EQ(y(0, 2), 1.0 * 5 + 2.0 * 6 + 1.0);
}

TEST(Linear, ForwardBatch)
{
    Rng rng(1);
    Linear layer(2, 1, rng);
    layer.weight().value = Matrix(1, 2, {2.0, -1.0});
    layer.bias().value = Matrix(1, 1, {10.0});
    Matrix x(3, 2, {1, 1, 2, 2, 0, 5});
    const Matrix y = layer.forward(x);
    EXPECT_DOUBLE_EQ(y(0, 0), 11.0);
    EXPECT_DOUBLE_EQ(y(1, 0), 12.0);
    EXPECT_DOUBLE_EQ(y(2, 0), 5.0);
}

TEST(Linear, WrongWidthPanics)
{
    Rng rng(1);
    Linear layer(3, 2, rng);
    Matrix x(1, 4);
    EXPECT_DEATH(layer.forward(x), "width");
}

TEST(Linear, GradientsMatchFiniteDifferences)
{
    Rng rng(2);
    Linear layer(4, 3, rng);
    Matrix x(5, 4);
    x.randomNormal(rng, 0.0, 1.0);
    EXPECT_LT(testing::checkModuleGradients(layer, x), 1e-5);
}

TEST(Linear, GradientsAccumulateAcrossBackwardCalls)
{
    Rng rng(3);
    Linear layer(2, 2, rng);
    Matrix x(1, 2, {1.0, 1.0});
    Matrix g(1, 2, {1.0, 1.0});

    layer.zeroGrad();
    layer.forward(x);
    layer.backward(g);
    const Matrix once = layer.weight().grad;
    layer.forward(x);
    layer.backward(g);
    Matrix twice = once;
    twice.scale(2.0);
    EXPECT_TRUE(layer.weight().grad == twice);
}

TEST(Linear, ZeroGradClears)
{
    Rng rng(4);
    Linear layer(2, 2, rng);
    Matrix x(1, 2, {1.0, 2.0});
    layer.forward(x);
    layer.backward(Matrix(1, 2, {1.0, 1.0}));
    EXPECT_GT(testing::maxAbs(layer.weight().grad), 0.0);
    layer.zeroGrad();
    EXPECT_DOUBLE_EQ(testing::maxAbs(layer.weight().grad), 0.0);
    EXPECT_DOUBLE_EQ(testing::maxAbs(layer.bias().grad), 0.0);
}

TEST(Linear, InitializationIsBoundedAndSeedDependent)
{
    Rng rng_a(5);
    Rng rng_b(5);
    Linear a(64, 32, rng_a);
    Linear b(64, 32, rng_b);
    EXPECT_TRUE(a.weight().value == b.weight().value);

    Rng rng_c(6);
    Linear c(64, 32, rng_c);
    EXPECT_FALSE(a.weight().value == c.weight().value);

    const double bound = std::sqrt(6.0 / 64.0);
    EXPECT_LE(testing::maxAbs(a.weight().value), bound);
    EXPECT_DOUBLE_EQ(testing::maxAbs(a.bias().value), 0.0);
}

TEST(Linear, LeakyReluGainMatchesKaimingFormula)
{
    // Regression: hidden layers feeding LeakyReLUs used to be
    // initialized with the plain-ReLU gain sqrt(2); the correct
    // Kaiming gain is sqrt(2 / (1 + slope^2)).
    EXPECT_DOUBLE_EQ(Linear::leakyReluGain(0.0), std::sqrt(2.0));
    EXPECT_DOUBLE_EQ(Linear::leakyReluGain(0.01),
                     std::sqrt(2.0 / (1.0 + 0.01 * 0.01)));
    EXPECT_DOUBLE_EQ(Linear::leakyReluGain(1.0), 1.0);
    EXPECT_LT(Linear::leakyReluGain(0.01), Linear::kDefaultInitGain);
    EXPECT_DOUBLE_EQ(Linear::kDefaultInitGain, std::sqrt(2.0));
}

TEST(Linear, InitGainScalesTheUniformBoundExactly)
{
    // Same seed, different gain: the draw is uniform scaled by the
    // bound, so the two weight matrices are an exact rescale.
    const double gain = Linear::leakyReluGain(0.1);
    Rng rng_a(9);
    Rng rng_b(9);
    Linear a(64, 32, rng_a);
    Linear b(64, 32, rng_b, "linear", gain);

    const double ratio = gain / Linear::kDefaultInitGain;
    const double bound = gain * std::sqrt(3.0 / 64.0);
    EXPECT_LE(testing::maxAbs(b.weight().value), bound);
    for (std::size_t r = 0; r < 32; ++r) {
        for (std::size_t c = 0; c < 64; ++c) {
            EXPECT_NEAR(b.weight().value(r, c),
                        a.weight().value(r, c) * ratio,
                        1e-15 * bound);
        }
    }
}

TEST(Linear, NonPositiveInitGainPanics)
{
    Rng rng(10);
    EXPECT_DEATH(Linear(2, 2, rng, "linear", 0.0), "gain");
    EXPECT_DEATH(Linear(2, 2, rng, "linear", -1.0), "gain");
}

TEST(Linear, ParametersExposesWeightAndBias)
{
    Rng rng(7);
    Linear layer(3, 5, rng);
    const auto params = layer.parameters();
    ASSERT_EQ(params.size(), 2u);
    EXPECT_EQ(params[0]->name, "linear.weight");
    EXPECT_EQ(params[1]->name, "linear.bias");
    EXPECT_EQ(params[0]->value.rows(), 5u);
    EXPECT_EQ(params[0]->value.cols(), 3u);
}

} // namespace
} // namespace vaesa::nn
