/** @file Unit tests for loss functions, including gradient checks. */

#include <gtest/gtest.h>

#include <cmath>

#include "gradcheck.hh"
#include "nn/loss.hh"
#include "util/rng.hh"

namespace vaesa::nn {
namespace {

/** The KLD of (mu, logvar), through a scratch result. */
double
kldValue(const Matrix &mu, const Matrix &logvar)
{
    KldResult r{0.0, Matrix(), Matrix()};
    gaussianKldInto(mu, logvar, r);
    return r.value;
}

TEST(MseLoss, KnownValue)
{
    Matrix pred(1, 2, {1.0, 3.0});
    Matrix target(1, 2, {0.0, 1.0});
    LossResult r{0.0, Matrix()};
    mseLossInto(pred, target, r);
    EXPECT_DOUBLE_EQ(r.value, (1.0 + 4.0) / 2.0);
    EXPECT_DOUBLE_EQ(r.grad(0, 0), 2.0 * 1.0 / 2.0);
    EXPECT_DOUBLE_EQ(r.grad(0, 1), 2.0 * 2.0 / 2.0);
}

TEST(MseLoss, ZeroWhenEqual)
{
    Matrix m(2, 2, {1, 2, 3, 4});
    LossResult r{0.0, Matrix()};
    mseLossInto(m, m, r);
    EXPECT_DOUBLE_EQ(r.value, 0.0);
    EXPECT_DOUBLE_EQ(testing::maxAbs(r.grad), 0.0);
}

TEST(MseLoss, ShapeMismatchPanics)
{
    LossResult r{0.0, Matrix()};
    EXPECT_DEATH(mseLossInto(Matrix(1, 2), Matrix(2, 1), r), "mismatch");
}

TEST(MseLoss, GradientMatchesFiniteDifference)
{
    Rng rng(1);
    Matrix pred(3, 4);
    Matrix target(3, 4);
    pred.randomNormal(rng, 0.0, 1.0);
    target.randomNormal(rng, 0.0, 1.0);
    LossResult r{0.0, Matrix()};
    mseLossInto(pred, target, r);
    LossResult probe{0.0, Matrix()};
    const auto loss = [&](const Matrix &p) {
        mseLossInto(p, target, probe);
        return probe.value;
    };
    const double eps = 1e-6;
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 4; ++j) {
            Matrix plus = pred;
            plus(i, j) += eps;
            Matrix minus = pred;
            minus(i, j) -= eps;
            const double numeric =
                (loss(plus) - loss(minus)) / (2.0 * eps);
            EXPECT_NEAR(r.grad(i, j), numeric, 1e-8);
        }
    }
}

TEST(GaussianKld, ZeroAtStandardNormal)
{
    Matrix mu(2, 3);
    Matrix logvar(2, 3);
    KldResult r{0.0, Matrix(), Matrix()};
    gaussianKldInto(mu, logvar, r);
    EXPECT_NEAR(r.value, 0.0, 1e-14);
    EXPECT_NEAR(testing::maxAbs(r.gradMu), 0.0, 1e-14);
    EXPECT_NEAR(testing::maxAbs(r.gradLogvar), 0.0, 1e-14);
}

TEST(GaussianKld, KnownValue)
{
    // Single element: mu = 1, logvar = 0:
    // KLD = -0.5 (1 + 0 - 1 - 1) = 0.5.
    Matrix mu(1, 1, {1.0});
    Matrix logvar(1, 1, {0.0});
    EXPECT_DOUBLE_EQ(kldValue(mu, logvar), 0.5);
}

TEST(GaussianKld, AlwaysNonNegative)
{
    Rng rng(2);
    for (int trial = 0; trial < 20; ++trial) {
        Matrix mu(4, 3);
        Matrix logvar(4, 3);
        mu.randomNormal(rng, 0.0, 2.0);
        logvar.randomNormal(rng, 0.0, 1.0);
        EXPECT_GE(kldValue(mu, logvar), -1e-12);
    }
}

TEST(GaussianKld, GradientsMatchFiniteDifferences)
{
    Rng rng(3);
    Matrix mu(2, 3);
    Matrix logvar(2, 3);
    mu.randomNormal(rng, 0.0, 1.0);
    logvar.randomNormal(rng, 0.0, 0.5);
    KldResult r{0.0, Matrix(), Matrix()};
    gaussianKldInto(mu, logvar, r);
    const double eps = 1e-6;
    for (std::size_t i = 0; i < 2; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            Matrix mp = mu;
            mp(i, j) += eps;
            Matrix mm = mu;
            mm(i, j) -= eps;
            const double num_mu =
                (kldValue(mp, logvar) - kldValue(mm, logvar)) /
                (2.0 * eps);
            EXPECT_NEAR(r.gradMu(i, j), num_mu, 1e-7);

            Matrix lp = logvar;
            lp(i, j) += eps;
            Matrix lm = logvar;
            lm(i, j) -= eps;
            const double num_lv =
                (kldValue(mu, lp) - kldValue(mu, lm)) / (2.0 * eps);
            EXPECT_NEAR(r.gradLogvar(i, j), num_lv, 1e-7);
        }
    }
}

TEST(GaussianKld, ScalesInverselyWithBatch)
{
    Matrix mu1(1, 2, {1.0, -1.0});
    Matrix lv1(1, 2, {0.2, -0.2});
    Matrix mu2(2, 2, {1.0, -1.0, 1.0, -1.0});
    Matrix lv2(2, 2, {0.2, -0.2, 0.2, -0.2});
    EXPECT_NEAR(kldValue(mu1, lv1), kldValue(mu2, lv2), 1e-12);
}

} // namespace
} // namespace vaesa::nn
