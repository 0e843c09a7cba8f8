/**
 * @file
 * End-to-end training sanity: a small MLP trained with Adam must fit
 * a simple nonlinear function, and deeper parameterized stacks must
 * pass finite-difference gradient checks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "../common/batching.hh"
#include "gradcheck.hh"
#include "nn/activation.hh"
#include "nn/linear.hh"
#include "nn/loss.hh"
#include "nn/optim.hh"
#include "nn/sequential.hh"
#include "util/rng.hh"

namespace vaesa::nn {
namespace {

TEST(Training, MlpFitsQuadraticFunction)
{
    Rng rng(11);
    auto net = makeMlp(1, {32, 32}, 1, rng);
    Adam opt(net->parameters(), 3e-3);

    // Target: y = x^2 on [-1, 1].
    const int n = 128;
    Matrix x(n, 1);
    Matrix y(n, 1);
    for (int i = 0; i < n; ++i) {
        const double xi = -1.0 + 2.0 * i / (n - 1);
        x(i, 0) = xi;
        y(i, 0) = xi * xi;
    }

    double final_loss = 1e9;
    for (int epoch = 0; epoch < 800; ++epoch) {
        const Matrix pred = net->forward(x);
        const LossResult loss = mseLoss(pred, y);
        final_loss = loss.value;
        opt.zeroGrad();
        net->backward(loss.grad);
        opt.step();
    }
    EXPECT_LT(final_loss, 1e-3);
}

TEST(Training, LossDecreasesMonotonicallyOnAverage)
{
    Rng rng(12);
    auto net = makeMlp(2, {16}, 1, rng);
    Adam opt(net->parameters(), 1e-2);

    Matrix x(64, 2);
    x.randomUniform(rng, -1.0, 1.0);
    Matrix y(64, 1);
    for (int i = 0; i < 64; ++i)
        y(i, 0) = std::sin(x(i, 0)) + 0.5 * x(i, 1);

    double first = 0.0;
    double last = 0.0;
    for (int epoch = 0; epoch < 300; ++epoch) {
        const LossResult loss = mseLoss(net->forward(x), y);
        if (epoch == 0)
            first = loss.value;
        last = loss.value;
        opt.zeroGrad();
        net->backward(loss.grad);
        opt.step();
    }
    EXPECT_LT(last, first * 0.1);
}

class DeepStackGradcheck : public ::testing::TestWithParam<int>
{
};

TEST_P(DeepStackGradcheck, PassesFiniteDifferences)
{
    const int depth = GetParam();
    Rng rng(100 + depth);
    std::vector<std::size_t> hidden(depth, 10);
    auto net = makeMlp(4, hidden, 3, rng,
                       OutputActivation::Sigmoid);
    Matrix x(3, 4);
    x.randomNormal(rng, 0.0, 1.0);
    EXPECT_LT(testing::checkModuleGradients(*net, x), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Depths, DeepStackGradcheck,
                         ::testing::Values(1, 2, 3, 4));

using vaesa::testing::Batching;

/**
 * Every analytic gradient must match finite differences through the
 * tuned GEMM kernels: they stay within ~1e-11 of the reference triple
 * loops, so a divergence here would mean a genuine math bug rather
 * than accumulation-order noise. Each check runs on the whole probe
 * batch (blocked: the GEMM's full row tiles) and on every probe row
 * alone (naive: m = 1, edge tiles only).
 */
class KernelGradcheck : public ::testing::TestWithParam<Batching>
{
  protected:
    /** @p x whole, or one 1-row matrix per row of @p x. */
    std::vector<Matrix> probes(const Matrix &x) const
    {
        if (GetParam() == Batching::Blocked)
            return {x};
        std::vector<Matrix> rows;
        for (std::size_t r = 0; r < x.rows(); ++r) {
            Matrix row(1, x.cols());
            for (std::size_t c = 0; c < x.cols(); ++c)
                row(0, c) = x(r, c);
            rows.push_back(row);
        }
        return rows;
    }

    /** Worst checkModuleGradients error over probes(x). */
    double checkGradients(Module &module, const Matrix &x) const
    {
        double worst = 0.0;
        for (const Matrix &probe : probes(x))
            worst = std::max(
                worst, testing::checkModuleGradients(module, probe));
        return worst;
    }
};

TEST_P(KernelGradcheck, LinearPassesFiniteDifferences)
{
    Rng rng(21);
    Linear layer(6, 5, rng);
    Matrix x(4, 6);
    x.randomNormal(rng, 0.0, 1.0);
    EXPECT_LT(checkGradients(layer, x), 1e-5);
}

TEST_P(KernelGradcheck, ActivationsPassFiniteDifferences)
{
    Rng rng(22);
    Matrix x(5, 4);
    x.randomNormal(rng, 0.0, 1.0);
    // Keep LeakyReLU probes away from the kink at 0.
    x.apply([](double v) {
        return std::fabs(v) < 0.05 ? v + 0.1 : v;
    });

    LeakyReLU leaky(4, 0.01);
    EXPECT_LT(checkGradients(leaky, x), 1e-5);
    Sigmoid sigmoid(4);
    EXPECT_LT(checkGradients(sigmoid, x), 1e-5);
    Tanh tanh_act(4);
    EXPECT_LT(checkGradients(tanh_act, x), 1e-5);
}

TEST_P(KernelGradcheck, MlpStackPassesFiniteDifferences)
{
    Rng rng(23);
    auto net = makeMlp(4, {12, 8}, 3, rng,
                       OutputActivation::Sigmoid);
    Matrix x(3, 4);
    x.randomNormal(rng, 0.0, 1.0);
    EXPECT_LT(checkGradients(*net, x), 1e-4);
}

TEST_P(KernelGradcheck, MseLossGradMatchesFiniteDifferences)
{
    Rng rng(24);
    Matrix preds(3, 4);
    Matrix targets(3, 4);
    preds.randomNormal(rng, 0.0, 1.0);
    targets.randomNormal(rng, 0.0, 1.0);

    const std::vector<Matrix> target_probes = probes(targets);
    std::vector<Matrix> pred_probes = probes(preds);
    for (std::size_t b = 0; b < pred_probes.size(); ++b) {
        Matrix &pred = pred_probes[b];
        const Matrix &target = target_probes[b];
        const LossResult loss = mseLoss(pred, target);
        const double eps = 1e-6;
        for (std::size_t r = 0; r < pred.rows(); ++r) {
            for (std::size_t c = 0; c < pred.cols(); ++c) {
                const double saved = pred(r, c);
                pred(r, c) = saved + eps;
                const double plus = mseLoss(pred, target).value;
                pred(r, c) = saved - eps;
                const double minus = mseLoss(pred, target).value;
                pred(r, c) = saved;
                EXPECT_NEAR(loss.grad(r, c),
                            (plus - minus) / (2 * eps), 1e-5);
            }
        }
    }
}

TEST_P(KernelGradcheck, GaussianKldGradsMatchFiniteDifferences)
{
    Rng rng(25);
    Matrix mus(3, 4);
    Matrix logvars(3, 4);
    mus.randomNormal(rng, 0.0, 1.0);
    logvars.randomNormal(rng, 0.0, 0.5);

    std::vector<Matrix> mu_probes = probes(mus);
    std::vector<Matrix> logvar_probes = probes(logvars);
    for (std::size_t b = 0; b < mu_probes.size(); ++b) {
        Matrix &mu = mu_probes[b];
        Matrix &logvar = logvar_probes[b];
        const KldResult kld = gaussianKld(mu, logvar);
        const double eps = 1e-6;
        for (std::size_t r = 0; r < mu.rows(); ++r) {
            for (std::size_t c = 0; c < mu.cols(); ++c) {
                double saved = mu(r, c);
                mu(r, c) = saved + eps;
                const double mu_plus = gaussianKld(mu, logvar).value;
                mu(r, c) = saved - eps;
                const double mu_minus = gaussianKld(mu, logvar).value;
                mu(r, c) = saved;
                EXPECT_NEAR(kld.gradMu(r, c),
                            (mu_plus - mu_minus) / (2 * eps), 1e-5);

                saved = logvar(r, c);
                logvar(r, c) = saved + eps;
                const double lv_plus = gaussianKld(mu, logvar).value;
                logvar(r, c) = saved - eps;
                const double lv_minus = gaussianKld(mu, logvar).value;
                logvar(r, c) = saved;
                EXPECT_NEAR(kld.gradLogvar(r, c),
                            (lv_plus - lv_minus) / (2 * eps), 1e-5);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Kernels, KernelGradcheck,
                         ::testing::Values(Batching::Naive,
                                           Batching::Blocked),
                         vaesa::testing::batchingName);

} // namespace
} // namespace vaesa::nn
