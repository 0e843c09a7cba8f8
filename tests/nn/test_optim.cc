/** @file Unit tests for the Adam optimizer. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "../common/reference_adam.hh"
#include "nn/optim.hh"
#include "util/rng.hh"

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

TEST(Adam, StepMatchesScalarReferenceBitForBit)
{
    // Ragged shapes put elements in every vector lane and tail.
    const std::size_t shapes[][2] = {{1, 1}, {3, 5}, {7, 9},
                                     {1, 67}, {13, 1}, {4, 8}};
    const double lr = 0.01, beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
    Rng rng(29);
    std::vector<Parameter> params;
    for (const auto &shape : shapes) {
        params.emplace_back(shape[0], shape[1], "p");
        params.back().value.randomUniform(rng, -1.0, 1.0);
    }
    std::vector<Parameter *> ptrs;
    std::vector<std::vector<double>> w, m, v;
    for (Parameter &p : params) {
        ptrs.push_back(&p);
        w.emplace_back(p.value.data(), p.value.data() + p.value.size());
        m.emplace_back(p.value.size(), 0.0);
        v.emplace_back(p.value.size(), 0.0);
    }
    Adam opt(ptrs, lr, beta1, beta2, eps);

    std::size_t bad = 0;
    for (int t = 1; t <= 50; ++t) {
        for (Parameter &p : params)
            p.grad.randomUniform(rng, -2.0, 2.0);
        opt.step();
        const double bc1 = 1.0 - std::pow(beta1, t);
        const double bc2 = 1.0 - std::pow(beta2, t);
        for (std::size_t i = 0; i < params.size(); ++i) {
            reference::adamUpdate(w[i].size(), params[i].grad.data(),
                                  m[i].data(), v[i].data(),
                                  w[i].data(), lr, beta1, beta2, eps,
                                  bc1, bc2);
            for (std::size_t k = 0; k < w[i].size(); ++k)
                bad += std::bit_cast<std::uint64_t>(
                           params[i].value.data()[k]) !=
                       std::bit_cast<std::uint64_t>(w[i][k]);
        }
    }
    EXPECT_EQ(bad, 0u);
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
