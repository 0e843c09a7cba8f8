/** @file Unit tests for the Adam optimizer. */

#include <gtest/gtest.h>

#include <cmath>

#include "nn/optim.hh"

namespace vaesa::nn {
namespace {

/** Quadratic bowl: L = sum((w - target)^2); grad = 2 (w - target). */
void
setQuadraticGrad(Parameter &p, double target)
{
    for (std::size_t r = 0; r < p.value.rows(); ++r)
        for (std::size_t c = 0; c < p.value.cols(); ++c)
            p.grad(r, c) = 2.0 * (p.value(r, c) - target);
}

TEST(Adam, ConvergesOnQuadratic)
{
    Parameter p(3, 1, "w");
    p.value.fill(-4.0);
    Adam opt({&p}, 0.05);
    for (int i = 0; i < 500; ++i) {
        setQuadraticGrad(p, 2.0);
        opt.step();
    }
    for (std::size_t r = 0; r < 3; ++r)
        EXPECT_NEAR(p.value(r, 0), 2.0, 1e-3);
}

TEST(Adam, FirstStepIsLearningRateSized)
{
    // With bias correction, the first Adam step is ~lr in magnitude
    // regardless of gradient scale.
    Parameter big(1, 1, "a");
    Parameter small(1, 1, "b");
    big.grad(0, 0) = 1000.0;
    small.grad(0, 0) = 0.001;
    Adam opt_a({&big}, 0.1);
    Adam opt_b({&small}, 0.1);
    opt_a.step();
    opt_b.step();
    EXPECT_NEAR(big.value(0, 0), -0.1, 1e-6);
    EXPECT_NEAR(small.value(0, 0), -0.1, 1e-6);
}

TEST(Adam, HandlesMultipleParameters)
{
    Parameter p1(1, 1, "a");
    Parameter p2(2, 2, "b");
    p1.value.fill(1.0);
    p2.value.fill(-1.0);
    Adam opt({&p1, &p2}, 0.05);
    for (int i = 0; i < 400; ++i) {
        setQuadraticGrad(p1, 0.5);
        setQuadraticGrad(p2, -0.5);
        opt.step();
    }
    EXPECT_NEAR(p1.value(0, 0), 0.5, 1e-3);
    EXPECT_NEAR(p2.value(1, 1), -0.5, 1e-3);
}

TEST(Optimizer, ZeroGradClearsAll)
{
    Parameter p1(1, 1, "a");
    Parameter p2(1, 1, "b");
    p1.grad(0, 0) = 1.0;
    p2.grad(0, 0) = 2.0;
    Adam opt({&p1, &p2}, 0.1);
    opt.zeroGrad();
    EXPECT_DOUBLE_EQ(p1.grad(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(p2.grad(0, 0), 0.0);
}

TEST(Optimizer, NullParameterPanics)
{
    EXPECT_DEATH(Adam({nullptr}, 0.1), "null");
}

TEST(Optimizer, LearningRateIsAdjustable)
{
    Parameter p(1, 1, "w");
    Adam opt({&p}, 1e-3);
    EXPECT_DOUBLE_EQ(opt.learningRate(), 1e-3);
    opt.setLearningRate(1e-4);
    EXPECT_DOUBLE_EQ(opt.learningRate(), 1e-4);
}

} // namespace
} // namespace vaesa::nn
