/** @file Unit tests for activation modules. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "gradcheck.hh"
#include "nn/activation.hh"
#include "util/rng.hh"

namespace vaesa::nn {
namespace {

TEST(LeakyReLU, ForwardValues)
{
    LeakyReLU act(3, 0.1);
    Matrix x(1, 3, {-2.0, 0.0, 3.0});
    const Matrix y = act.forward(x);
    EXPECT_DOUBLE_EQ(y(0, 0), -0.2);
    EXPECT_DOUBLE_EQ(y(0, 1), 0.0);
    EXPECT_DOUBLE_EQ(y(0, 2), 3.0);
}

TEST(LeakyReLU, BackwardSlopes)
{
    LeakyReLU act(2, 0.01);
    Matrix x(1, 2, {-1.0, 1.0});
    act.forward(x);
    const Matrix g = act.backward(Matrix(1, 2, {1.0, 1.0}));
    EXPECT_DOUBLE_EQ(g(0, 0), 0.01);
    EXPECT_DOUBLE_EQ(g(0, 1), 1.0);
}

TEST(LeakyReLU, GradientsMatchFiniteDifferences)
{
    Rng rng(1);
    LeakyReLU act(4, 0.05);
    Matrix x(6, 4);
    // Keep probes away from the kink at 0.
    x.randomNormal(rng, 0.0, 1.0);
    testing::nudgeOffKink(x);
    EXPECT_LT(testing::checkModuleGradients(act, x), 1e-5);
}

TEST(LeakyReLU, ForwardBackwardBranchesAgree)
{
    // Regression: forward used to branch on input > 0 while backward
    // branched on input >= 0, so x == 0 took the slope path forward
    // but reported derivative 1 backward. Both passes now share one
    // predicate (the cached output's sign) with f'(0) = slope.
    LeakyReLU act(4, 0.25);
    Matrix x(1, 4, {-1.0, -0.0, 0.0, 2.0});
    const Matrix y = act.forward(x);
    EXPECT_DOUBLE_EQ(y(0, 0), -0.25);
    EXPECT_DOUBLE_EQ(y(0, 1), 0.0);
    EXPECT_DOUBLE_EQ(y(0, 2), 0.0);
    EXPECT_DOUBLE_EQ(y(0, 3), 2.0);

    const Matrix g = act.backward(Matrix(1, 4, {1.0, 1.0, 1.0, 1.0}));
    EXPECT_DOUBLE_EQ(g(0, 0), 0.25);
    EXPECT_DOUBLE_EQ(g(0, 1), 0.25);
    EXPECT_DOUBLE_EQ(g(0, 2), 0.25);
    EXPECT_DOUBLE_EQ(g(0, 3), 1.0);
}

TEST(LeakyReLU, NanInputsTakeTheSlopeBranchInBothPasses)
{
    // A NaN fails the > 0 test in forward (slope-scaled to NaN) and
    // again in backward, so the two passes stay consistent.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    LeakyReLU act(2, 0.5);
    Matrix x(1, 2, {nan, 3.0});
    const Matrix y = act.forward(x);
    EXPECT_TRUE(std::isnan(y(0, 0)));
    EXPECT_DOUBLE_EQ(y(0, 1), 3.0);

    const Matrix g = act.backward(Matrix(1, 2, {2.0, 2.0}));
    EXPECT_DOUBLE_EQ(g(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(g(0, 1), 2.0);
}

TEST(LeakyReLU, NegativeSlopePanics)
{
    EXPECT_DEATH(LeakyReLU(2, -0.1), "slope");
}

TEST(Sigmoid, ForwardValues)
{
    Sigmoid act(2);
    Matrix x(1, 2, {0.0, 100.0});
    const Matrix y = act.forward(x);
    EXPECT_DOUBLE_EQ(y(0, 0), 0.5);
    EXPECT_NEAR(y(0, 1), 1.0, 1e-12);
}

TEST(Sigmoid, OutputInUnitInterval)
{
    Rng rng(2);
    Sigmoid act(8);
    Matrix x(10, 8);
    x.randomNormal(rng, 0.0, 5.0);
    const Matrix y = act.forward(x);
    for (std::size_t r = 0; r < y.rows(); ++r) {
        for (std::size_t c = 0; c < y.cols(); ++c) {
            EXPECT_GT(y(r, c), 0.0);
            EXPECT_LT(y(r, c), 1.0);
        }
    }
}

TEST(Sigmoid, GradientsMatchFiniteDifferences)
{
    Rng rng(3);
    Sigmoid act(3);
    Matrix x(5, 3);
    x.randomNormal(rng, 0.0, 2.0);
    EXPECT_LT(testing::checkModuleGradients(act, x), 1e-5);
}

TEST(Activation, WidthMismatchPanics)
{
    LeakyReLU act(3);
    EXPECT_DEATH(act.forward(Matrix(1, 4)), "mismatch");
    Sigmoid sig(2);
    EXPECT_DEATH(sig.forward(Matrix(1, 3)), "mismatch");
}

TEST(Activation, HasNoParameters)
{
    LeakyReLU relu(3);
    Sigmoid sig(3);
    EXPECT_TRUE(relu.parameters().empty());
    EXPECT_TRUE(sig.parameters().empty());
}

} // namespace
} // namespace vaesa::nn
