/** @file Unit tests for the dense Matrix type. */

#include <gtest/gtest.h>

#include <numeric>

#include "../common/reference_gemm.hh"
#include "tensor/kernels/kernels.hh"
#include "tensor/matrix.hh"
#include "util/rng.hh"

namespace vaesa {
namespace {

TEST(Matrix, ZeroInitialized)
{
    Matrix m(2, 3);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_DOUBLE_EQ(m(r, c), 0.0);
}

TEST(Matrix, FillConstructorAndFill)
{
    Matrix m(2, 2, 7.0);
    EXPECT_DOUBLE_EQ(m(1, 1), 7.0);
    m.fill(-1.0);
    EXPECT_DOUBLE_EQ(m(0, 0), -1.0);
}

TEST(Matrix, PayloadConstructorIsRowMajor)
{
    Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
    EXPECT_DOUBLE_EQ(m(0, 2), 3.0);
    EXPECT_DOUBLE_EQ(m(1, 0), 4.0);
}

TEST(Matrix, PayloadSizeMismatchPanics)
{
    EXPECT_DEATH(Matrix(2, 2, {1.0, 2.0, 3.0}), "payload");
}

TEST(Matrix, OutOfBoundsPanics)
{
    Matrix m(2, 2);
    EXPECT_DEATH(m(2, 0), "out of");
    EXPECT_DEATH(m(0, 2), "out of");
}

TEST(Matrix, RowRoundTrip)
{
    Matrix m(2, 3);
    m.setRow(1, {4.0, 5.0, 6.0});
    const std::vector<double> expect{4.0, 5.0, 6.0};
    EXPECT_EQ(m.row(1), expect);
}

TEST(Matrix, AddSubScale)
{
    Matrix a(1, 3, {1, 2, 3});
    Matrix b(1, 3, {10, 20, 30});
    a.add(b);
    EXPECT_DOUBLE_EQ(a(0, 2), 33.0);
    b.scale(-1.0);
    a.add(b);
    EXPECT_DOUBLE_EQ(a(0, 2), 3.0);
    a.scale(2.0);
    EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
}

TEST(Matrix, ShapeMismatchPanics)
{
    Matrix a(1, 3);
    Matrix b(3, 1);
    EXPECT_DEATH(a.add(b), "mismatch");
}

TEST(Matrix, MultiplyKnownValues)
{
    Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
    Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
    Matrix c(2, 2);
    kernels::gemm(2, 2, 3, a.data(), b.data(), c.data());
    EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Matrix, ColSums)
{
    Matrix m(2, 2, {1, 2, 3, 4});
    std::vector<double> sums(2, 0.0);
    kernels::addColSums(m.data(), m.rows(), m.cols(), sums.data());
    const std::vector<double> expect{4.0, 6.0};
    EXPECT_EQ(sums, expect);
}

TEST(Matrix, TransposedVariantsAgreeWithExplicitTranspose)
{
    Rng rng(1);
    Matrix a(4, 5);
    Matrix b(3, 5);
    a.randomNormal(rng, 0.0, 1.0);
    b.randomNormal(rng, 0.0, 1.0);
    Matrix bt(5, 3);
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 5; ++c)
            bt(c, r) = b(r, c);

    Matrix via_t(4, 3);
    kernels::gemm(4, 3, 5, a.data(), bt.data(), via_t.data());
    Matrix direct(4, 3);
    reference::gemmTransB(4, 3, 5, a.data(), b.data(), direct.data());
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_NEAR(via_t(r, c), direct(r, c), 1e-12);

    // A^T B with A stored (5 x 4): transpose it explicitly as well.
    Matrix a2(5, 4);
    a2.randomNormal(rng, 0.0, 1.0);
    Matrix b2(5, 3);
    b2.randomNormal(rng, 0.0, 1.0);
    Matrix a2t(4, 5);
    for (std::size_t r = 0; r < 5; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            a2t(c, r) = a2(r, c);
    Matrix via_t2(4, 3);
    kernels::gemm(4, 3, 5, a2t.data(), b2.data(), via_t2.data());
    Matrix direct2(4, 3);
    kernels::gemmTransA(4, 3, 5, a2.data(), b2.data(), direct2.data());
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_NEAR(via_t2(r, c), direct2(r, c), 1e-12);
}

TEST(Matrix, RandomFillsRespectDistributions)
{
    Rng rng(2);
    Matrix m(100, 100);
    m.randomUniform(rng, 2.0, 3.0);
    double mn = 1e300;
    double mx = -1e300;
    for (std::size_t r = 0; r < m.rows(); ++r) {
        for (std::size_t c = 0; c < m.cols(); ++c) {
            mn = std::min(mn, m(r, c));
            mx = std::max(mx, m(r, c));
        }
    }
    EXPECT_GE(mn, 2.0);
    EXPECT_LT(mx, 3.0);

    m.randomNormal(rng, 5.0, 1.0);
    const double sum =
        std::accumulate(m.data(), m.data() + m.size(), 0.0);
    EXPECT_NEAR(sum / m.size(), 5.0, 0.05);
}

TEST(Matrix, EqualityIsExact)
{
    Matrix a(1, 2, {1.0, 2.0});
    Matrix b(1, 2, {1.0, 2.0});
    EXPECT_TRUE(a == b);
    b(0, 1) = 2.0000001;
    EXPECT_FALSE(a == b);
}

class MatmulAssociativity
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(MatmulAssociativity, MatchesManualAccumulation)
{
    const auto [m, k, n] = GetParam();
    Rng rng(7);
    Matrix a(m, k);
    Matrix b(k, n);
    a.randomUniform(rng, -1.0, 1.0);
    b.randomUniform(rng, -1.0, 1.0);
    Matrix c(m, n);
    kernels::gemm(m, n, k, a.data(), b.data(), c.data());
    for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
            double acc = 0.0;
            for (int kk = 0; kk < k; ++kk)
                acc += a(i, kk) * b(kk, j);
            EXPECT_NEAR(c(i, j), acc, 1e-12);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulAssociativity,
    ::testing::Values(std::make_tuple(1, 1, 1),
                      std::make_tuple(2, 3, 4),
                      std::make_tuple(5, 1, 5),
                      std::make_tuple(8, 8, 8),
                      std::make_tuple(3, 17, 2)));

} // namespace
} // namespace vaesa
