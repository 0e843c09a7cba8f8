/** @file Unit tests for Sequential and the MLP builder. */

#include <gtest/gtest.h>

#include "gradcheck.hh"
#include "nn/activation.hh"
#include "nn/linear.hh"
#include "nn/sequential.hh"
#include "util/rng.hh"

namespace vaesa::nn {
namespace {

TEST(Sequential, ChainsForward)
{
    Rng rng(1);
    Sequential net;
    auto lin = std::make_unique<Linear>(2, 2, rng);
    lin->weight().value = Matrix(2, 2, {1, 0, 0, 1});
    lin->bias().value = Matrix(1, 2, {-1.0, -1.0});
    net.add(std::move(lin));
    net.add(std::make_unique<LeakyReLU>(2, 0.0));

    Matrix x(1, 2, {3.0, 0.5});
    const Matrix y = net.forward(x);
    EXPECT_DOUBLE_EQ(y(0, 0), 2.0);
    EXPECT_DOUBLE_EQ(y(0, 1), 0.0);
}

TEST(Sequential, RejectsWidthMismatch)
{
    Rng rng(1);
    Sequential net;
    net.add(std::make_unique<Linear>(2, 3, rng));
    EXPECT_DEATH(net.add(std::make_unique<Linear>(4, 1, rng)),
                 "width mismatch");
}

TEST(Sequential, EmptySizeQueriesPanic)
{
    Sequential net;
    EXPECT_DEATH(net.inputSize(), "empty");
    EXPECT_DEATH(net.outputSize(), "empty");
}

TEST(Sequential, CollectsAllParameters)
{
    Rng rng(2);
    auto net = makeMlp(4, {8, 8}, 2, rng);
    // 3 Linear layers x 2 parameters.
    EXPECT_EQ(net->parameters().size(), 6u);
    EXPECT_EQ(net->inputSize(), 4u);
    EXPECT_EQ(net->outputSize(), 2u);
}

TEST(Sequential, GradientsMatchFiniteDifferences)
{
    Rng rng(3);
    auto net = makeMlp(3, {8, 6}, 2, rng);
    Matrix x(4, 3);
    x.randomNormal(rng, 0.0, 1.0);
    EXPECT_LT(testing::checkModuleGradients(*net, x), 1e-4);
}

TEST(Sequential, GradientsWithSigmoidHead)
{
    Rng rng(4);
    auto net = makeMlp(3, {6}, 2, rng, OutputActivation::Sigmoid);
    Matrix x(4, 3);
    x.randomNormal(rng, 0.0, 1.0);
    EXPECT_LT(testing::checkModuleGradients(*net, x), 1e-4);
}

TEST(MakeMlp, StageCountsAndShapes)
{
    Rng rng(6);
    // 2 hidden layers: Linear+ReLU per hidden, final Linear, no head.
    auto net = makeMlp(5, {7, 9}, 3, rng);
    EXPECT_EQ(net->stageCount(), 5u);
    auto with_head =
        makeMlp(5, {7}, 3, rng, OutputActivation::Sigmoid);
    EXPECT_EQ(with_head->stageCount(), 4u);
    auto no_hidden = makeMlp(5, {}, 3, rng);
    EXPECT_EQ(no_hidden->stageCount(), 1u);
}

TEST(MakeMlp, DeterministicForSeed)
{
    Rng rng_a(7);
    Rng rng_b(7);
    auto a = makeMlp(4, {8}, 2, rng_a);
    auto b = makeMlp(4, {8}, 2, rng_b);
    Matrix x(2, 4, {1, 2, 3, 4, 5, 6, 7, 8});
    EXPECT_TRUE(a->forward(x) == b->forward(x));
}

} // namespace
} // namespace vaesa::nn
