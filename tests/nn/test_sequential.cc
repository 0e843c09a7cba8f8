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

// The module.hh buffer contract: a forward() result is a buffer the
// module owns. Its address holds across forwards at the same or a
// smaller batch, and another module's forward leaves its values alone.

TEST(ModuleOutputBuffer, LinearOutputKeepsItsAddress)
{
    Rng rng(8);
    Linear layer(5, 3, rng);
    Matrix x(8, 5);
    x.randomNormal(rng, 0.0, 1.0);
    const Matrix &first = layer.forward(x);
    const double *storage = first.data();
    EXPECT_EQ(&layer.forward(x), &first);
    EXPECT_EQ(first.data(), storage);

    Matrix smaller(3, 5);
    smaller.randomNormal(rng, 0.0, 1.0);
    EXPECT_EQ(&layer.forward(smaller), &first);
    EXPECT_EQ(first.data(), storage);
    EXPECT_EQ(first.rows(), 3u);
}

TEST(ModuleOutputBuffer, SequentialOutputKeepsItsAddress)
{
    Rng rng(9);
    auto net = makeMlp(4, {16, 8}, 2, rng, OutputActivation::Sigmoid);
    Matrix x(8, 4);
    x.randomNormal(rng, 0.0, 1.0);
    const Matrix &first = net->forward(x);
    const double *storage = first.data();
    EXPECT_EQ(&net->forward(x), &first);
    EXPECT_EQ(first.data(), storage);

    Matrix smaller(1, 4);
    smaller.randomNormal(rng, 0.0, 1.0);
    EXPECT_EQ(&net->forward(smaller), &first);
    EXPECT_EQ(first.data(), storage);
    EXPECT_EQ(first.rows(), 1u);
}

TEST(ModuleOutputBuffer, OutputSurvivesOtherModulesForward)
{
    // The VAE's shape: one trunk output read by two standalone heads,
    // then another chain runs before the trunk output is read again.
    Rng rng(10);
    auto trunk = makeMlp(6, {16}, 8, rng);
    Linear mu_head(8, 3, rng, "mu");
    Linear logvar_head(8, 3, rng, "logvar");
    auto decoder = makeMlp(3, {16}, 6, rng, OutputActivation::Sigmoid);
    Matrix x(5, 6);
    x.randomNormal(rng, 0.0, 1.0);

    const Matrix &hidden = trunk->forward(x);
    const Matrix hidden_copy = hidden;
    const Matrix &mu = mu_head.forward(hidden);
    const Matrix mu_copy = mu;
    const Matrix &logvar = logvar_head.forward(hidden);
    EXPECT_TRUE(hidden == hidden_copy);
    EXPECT_TRUE(mu == mu_copy);

    const Matrix logvar_copy = logvar;
    decoder->forward(mu);
    EXPECT_TRUE(hidden == hidden_copy);
    EXPECT_TRUE(mu == mu_copy);
    EXPECT_TRUE(logvar == logvar_copy);
}

} // namespace
} // namespace vaesa::nn
