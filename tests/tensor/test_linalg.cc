/** @file Unit tests for Cholesky and triangular solves. */

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/linalg.hh"
#include "util/rng.hh"

namespace vaesa {
namespace {

/** Random SPD matrix A = B B^T + n I. */
Matrix
randomSpd(std::size_t n, Rng &rng)
{
    Matrix b(n, n);
    b.randomNormal(rng, 0.0, 1.0);
    Matrix a = Matrix::multiplyTransB(b, b);
    for (std::size_t i = 0; i < n; ++i)
        a(i, i) += static_cast<double>(n);
    return a;
}

TEST(Linalg, CholeskyOfIdentity)
{
    Matrix eye(3, 3);
    for (int i = 0; i < 3; ++i)
        eye(i, i) = 1.0;
    Matrix lower;
    ASSERT_TRUE(cholesky(eye, lower));
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            EXPECT_NEAR(lower(i, j), i == j ? 1.0 : 0.0, 1e-14);
}

TEST(Linalg, CholeskyKnownFactor)
{
    Matrix a(2, 2, {4.0, 2.0, 2.0, 5.0});
    Matrix lower;
    ASSERT_TRUE(cholesky(a, lower));
    EXPECT_NEAR(lower(0, 0), 2.0, 1e-14);
    EXPECT_NEAR(lower(1, 0), 1.0, 1e-14);
    EXPECT_NEAR(lower(1, 1), 2.0, 1e-14);
    EXPECT_NEAR(lower(0, 1), 0.0, 1e-14);
}

TEST(Linalg, CholeskyRejectsIndefinite)
{
    Matrix a(2, 2, {1.0, 2.0, 2.0, 1.0});
    Matrix lower;
    EXPECT_FALSE(cholesky(a, lower));
}

TEST(Linalg, CholeskyReconstructs)
{
    Rng rng(3);
    const Matrix a = randomSpd(6, rng);
    Matrix lower;
    ASSERT_TRUE(cholesky(a, lower));
    const Matrix back = Matrix::multiplyTransB(lower, lower);
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 6; ++j)
            EXPECT_NEAR(back(i, j), a(i, j), 1e-10);
}

TEST(Linalg, TriangularSolvesInvertEachOther)
{
    Rng rng(4);
    const Matrix a = randomSpd(5, rng);
    Matrix lower;
    ASSERT_TRUE(cholesky(a, lower));
    const std::vector<double> b{1.0, -2.0, 0.5, 3.0, 0.0};
    const std::vector<double> y = solveLower(lower, b);
    // Check L y = b.
    for (std::size_t i = 0; i < 5; ++i) {
        double acc = 0.0;
        for (std::size_t k = 0; k <= i; ++k)
            acc += lower(i, k) * y[k];
        EXPECT_NEAR(acc, b[i], 1e-10);
    }
    const std::vector<double> x = solveLowerTransposed(lower, y);
    // Check A x = b.
    for (std::size_t i = 0; i < 5; ++i) {
        double acc = 0.0;
        for (std::size_t k = 0; k < 5; ++k)
            acc += a(i, k) * x[k];
        EXPECT_NEAR(acc, b[i], 1e-9);
    }
}

TEST(Linalg, JitterRecoversNearSingular)
{
    // Rank-deficient PSD matrix: ones(3,3).
    Matrix a(3, 3, 1.0);
    Matrix lower;
    const double jitter = choleskyJittered(a, lower);
    EXPECT_GT(jitter, 0.0);
    const Matrix back = Matrix::multiplyTransB(lower, lower);
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            EXPECT_NEAR(back(i, j), a(i, j) + (i == j ? jitter : 0.0),
                        1e-8);
}

TEST(Linalg, SquaredDistance)
{
    const std::vector<double> a{1.0, 2.0, 3.0};
    const std::vector<double> b{4.0, -5.0, 6.0};
    EXPECT_DOUBLE_EQ(squaredDistance(a, b), 9.0 + 49.0 + 9.0);
    EXPECT_DEATH(squaredDistance(a, {1.0}), "mismatch");
}

TEST(Linalg, SolvesRejectShapeMismatch)
{
    const Matrix wide(2, 3, 1.0);
    EXPECT_DEATH(solveLower(wide, {1.0, 2.0}), "mismatch");
    EXPECT_DEATH(solveLowerTransposed(wide, {1.0, 2.0}), "mismatch");
    const Matrix eye(2, 2, {1.0, 0.0, 0.0, 1.0});
    EXPECT_DEATH(solveLower(eye, {1.0}), "mismatch");
    EXPECT_DEATH(solveLowerTransposed(eye, {1.0}), "mismatch");
}

class SolveSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(SolveSweep, ResidualSmallAcrossSizes)
{
    const int n = GetParam();
    Rng rng(n);
    const Matrix a = randomSpd(n, rng);
    std::vector<double> b(n);
    for (auto &v : b)
        v = rng.uniform(-2.0, 2.0);
    Matrix lower;
    choleskyJittered(a, lower);
    const std::vector<double> x =
        solveLowerTransposed(lower, solveLower(lower, b));
    double residual = 0.0;
    for (int i = 0; i < n; ++i) {
        double acc = -b[i];
        for (int k = 0; k < n; ++k)
            acc += a(i, k) * x[k];
        residual += acc * acc;
    }
    EXPECT_LT(std::sqrt(residual), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolveSweep,
                         ::testing::Values(1, 2, 3, 5, 10, 20, 50));

} // namespace
} // namespace vaesa
