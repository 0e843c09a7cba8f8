/** @file Unit tests for Cholesky and triangular solves. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "../common/reference_gemm.hh"
#include "tensor/linalg.hh"
#include "util/rng.hh"

namespace vaesa {
namespace {

/** B B^T. */
Matrix
timesOwnTranspose(const Matrix &b)
{
    Matrix c(b.rows(), b.rows());
    reference::gemmTransB(b.rows(), b.rows(), b.cols(), b.data(),
                          b.data(), c.data());
    return c;
}

/** Random SPD matrix A = B B^T + n I. */
Matrix
randomSpd(std::size_t n, Rng &rng)
{
    Matrix b(n, n);
    b.randomNormal(rng, 0.0, 1.0);
    Matrix a = timesOwnTranspose(b);
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
    const Matrix back = timesOwnTranspose(lower);
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

/** Textbook one-row-at-a-time Cholesky, written independently of
 *  the row-blocked library loop. */
bool
referenceCholesky(const Matrix &a, Matrix &lower)
{
    const std::size_t n = a.rows();
    lower = Matrix(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double acc = a(i, j);
            for (std::size_t k = 0; k < j; ++k)
                acc -= lower(i, k) * lower(j, k);
            if (i == j) {
                if (acc <= 0.0 || !std::isfinite(acc))
                    return false;
                lower(i, i) = std::sqrt(acc);
            } else {
                lower(i, j) = acc / lower(j, j);
            }
        }
    }
    return true;
}

void
expectSameBits(const Matrix &got, const Matrix &want,
               const std::string &where)
{
    ASSERT_EQ(got.rows(), want.rows()) << where;
    ASSERT_EQ(got.cols(), want.cols()) << where;
    for (std::size_t i = 0; i < got.rows(); ++i)
        for (std::size_t j = 0; j < got.cols(); ++j)
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got(i, j)),
                      std::bit_cast<std::uint64_t>(want(i, j)))
                << where << ": L(" << i << ", " << j << ") "
                << got(i, j) << " vs " << want(i, j);
}

class CholeskyBlockEdges : public ::testing::TestWithParam<int>
{
};

TEST_P(CholeskyBlockEdges, RowBlocksMatchOneRowLoopBitForBit)
{
    const auto n = static_cast<std::size_t>(GetParam());
    Rng rng(100 + n);
    const Matrix a = randomSpd(n, rng);
    Matrix want;
    ASSERT_TRUE(referenceCholesky(a, want));
    Matrix got;
    ASSERT_TRUE(cholesky(a, got));
    expectSameBits(got, want, "full");
}

TEST_P(CholeskyBlockEdges, ExtendedFactorMatchesFullFactorBitForBit)
{
    const auto n = static_cast<std::size_t>(GetParam());
    Rng rng(200 + n);
    const Matrix a = randomSpd(n, rng);
    Matrix full;
    ASSERT_TRUE(cholesky(a, full));
    for (std::size_t p = 1; p <= n; ++p) {
        // Factor the leading p x p block on its own, then extend it.
        Matrix head(p, p);
        for (std::size_t i = 0; i < p; ++i)
            for (std::size_t j = 0; j < p; ++j)
                head(i, j) = a(i, j);
        Matrix head_lower;
        ASSERT_TRUE(cholesky(head, head_lower));
        Matrix lower(n, n);
        for (std::size_t i = 0; i < p; ++i)
            for (std::size_t j = 0; j <= i; ++j)
                lower(i, j) = head_lower(i, j);
        // Rows above the start row of a are never read.
        Matrix poisoned = a;
        for (std::size_t i = 0; i < p; ++i)
            for (std::size_t j = 0; j < n; ++j)
                poisoned(i, j) = std::numeric_limits<double>::quiet_NaN();
        ASSERT_TRUE(cholesky(poisoned, lower, p)) << "p=" << p;
        expectSameBits(lower, full, "p=" + std::to_string(p));
    }
}

TEST_P(CholeskyBlockEdges, ExtensionReportsIndefiniteRow)
{
    // A negative last diagonal makes only the last row fail: every
    // start row must report it, as the full factorization does.
    const auto n = static_cast<std::size_t>(GetParam());
    Rng rng(300 + n);
    Matrix a = randomSpd(n, rng);
    a(n - 1, n - 1) = -1.0;
    Matrix ref;
    ASSERT_FALSE(referenceCholesky(a, ref));
    Matrix full;
    ASSERT_FALSE(cholesky(a, full));
    // The factor of rows [0, n - 1) is valid; start anywhere in it.
    Matrix head(n - 1, n - 1);
    for (std::size_t i = 0; i + 1 < n; ++i)
        for (std::size_t j = 0; j + 1 < n; ++j)
            head(i, j) = a(i, j);
    Matrix head_lower;
    ASSERT_TRUE(cholesky(head, head_lower));
    for (std::size_t p = 1; p < n; ++p) {
        Matrix lower(n, n);
        for (std::size_t i = 0; i < p; ++i)
            for (std::size_t j = 0; j <= i; ++j)
                lower(i, j) = head_lower(i, j);
        EXPECT_FALSE(cholesky(a, lower, p)) << "p=" << p;
    }
}

// Panel edges, then BayesOpt's sizes around maxGpPoints (192).
INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyBlockEdges,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 31,
                                           32, 33, 63, 64, 65, 191, 192,
                                           193));

TEST(Linalg, CholeskyStartRowNeedsAFactorOfTheRightShape)
{
    const Matrix a(3, 3, {4.0, 2.0, 0.0, 2.0, 5.0, 0.0, 0.0, 0.0, 1.0});
    Matrix lower(2, 2);
    EXPECT_DEATH(cholesky(a, lower, 1), "start row");
    Matrix square(3, 3);
    EXPECT_DEATH(cholesky(a, square, 4), "start row");
}

TEST(Linalg, JitterRecoversNearSingular)
{
    // Rank-deficient PSD matrix: ones(3,3).
    Matrix a(3, 3, 1.0);
    Matrix lower;
    const double jitter = choleskyJittered(a, lower);
    EXPECT_GT(jitter, 0.0);
    const Matrix back = timesOwnTranspose(lower);
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            EXPECT_NEAR(back(i, j), a(i, j) + (i == j ? jitter : 0.0),
                        1e-8);
}

TEST(Linalg, SquaredDistance)
{
    const std::vector<double> a{1.0, 2.0, 3.0};
    const std::vector<double> b{4.0, -5.0, 6.0};
    EXPECT_DOUBLE_EQ(squaredDistance(a.data(), b.data(), 3),
                     9.0 + 49.0 + 9.0);
    EXPECT_DOUBLE_EQ(squaredDistance(a.data(), b.data(), 1), 9.0);
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

/** Textbook one-row-at-a-time forward substitution, written
 *  independently of the row-blocked library loop. */
std::vector<double>
referenceSolveLower(const Matrix &lower, const std::vector<double> &b)
{
    const std::size_t n = b.size();
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
        double acc = b[i];
        for (std::size_t k = 0; k < i; ++k)
            acc -= lower(i, k) * y[k];
        y[i] = acc / lower(i, i);
    }
    return y;
}

class SolveSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(SolveSweep, BlockedSolveMatchesOneRowLoopBitForBit)
{
    const auto n = static_cast<std::size_t>(GetParam());
    Rng rng(400 + n);
    Matrix lower;
    ASSERT_TRUE(cholesky(randomSpd(n, rng), lower));
    std::vector<double> b(n);
    for (auto &v : b)
        v = rng.uniform(-2.0, 2.0);
    const std::vector<double> got = solveLower(lower, b);
    const std::vector<double> want = referenceSolveLower(lower, b);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(want[i]))
            << "n=" << n << ": y[" << i << "] " << got[i] << " vs "
            << want[i];
}

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
// With Sizes, every n in 1..13 (the 4-row blocks and their tails),
// and BayesOpt's maxGpPoints.
INSTANTIATE_TEST_SUITE_P(BlockEdges, SolveSweep,
                         ::testing::Values(4, 6, 7, 8, 9, 11, 12, 13,
                                           192));

} // namespace
} // namespace vaesa
