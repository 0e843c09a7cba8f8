/** @file Kernel-layer tests: GEMM-vs-reference equivalence within
 *  the documented FMA tolerance (including NaN/Inf operands -- the
 *  old zero-skip sparsity shortcut masked their propagation), exact
 *  agreement of the reference orientations, run-to-run determinism,
 *  and workspace arena growth stability. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "../common/reference_gemm.hh"
#include "tensor/kernels/kernels.hh"
#include "tensor/kernels/workspace.hh"
#include "tensor/matrix.hh"
#include "util/rng.hh"

namespace vaesa {
namespace {

Matrix
randomMatrix(std::size_t rows, std::size_t cols, Rng &rng)
{
    Matrix m(rows, cols);
    m.randomUniform(rng, -1.0, 1.0);
    return m;
}

/** Reference C = A * B (tests/common/reference_gemm.hh). */
Matrix
refMultiply(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.cols());
    reference::gemm(a.rows(), b.cols(), a.cols(), a.data(), b.data(),
                    c.data());
    return c;
}

/** Reference C = A^T * B. */
Matrix
refMultiplyTransA(const Matrix &a, const Matrix &b)
{
    Matrix c(a.cols(), b.cols());
    reference::gemmTransA(a.cols(), b.cols(), a.rows(), a.data(),
                          b.data(), c.data());
    return c;
}

/** Reference C = A * B^T. */
Matrix
refMultiplyTransB(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.rows());
    reference::gemmTransB(a.rows(), b.rows(), a.cols(), a.data(),
                          b.data(), c.data());
    return c;
}

/** Exact equality, treating any-NaN-equals-any-NaN. */
void
expectSameValues(const Matrix &got, const Matrix &want)
{
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (std::size_t r = 0; r < got.rows(); ++r) {
        for (std::size_t c = 0; c < got.cols(); ++c) {
            if (std::isnan(want(r, c))) {
                EXPECT_TRUE(std::isnan(got(r, c)))
                    << "at (" << r << ", " << c << ")";
            } else {
                EXPECT_EQ(got(r, c), want(r, c))
                    << "at (" << r << ", " << c << ")";
            }
        }
    }
}

/**
 * Tolerance for GEMM-vs-reference drift. The kernel TU is compiled
 * with FMA and fp contraction (and the transB dot is lane-split), so
 * each of the k accumulation steps can shift by one rounding of the
 * ~|a||b| partial products: |err| <= ~k * eps * sum_k |a||b|. With
 * uniform(-1, 1) entries and k <= 128 that bounds the drift around
 * 128 * 128 * 2^-52 ~ 4e-12; 1e-11 leaves headroom without letting a
 * genuinely wrong accumulation (O(1) error) slip through.
 */
constexpr double kBlockedTol = 1e-11;

void
expectWithinTolerance(const Matrix &got, const Matrix &want,
                      double tol)
{
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (std::size_t r = 0; r < got.rows(); ++r)
        for (std::size_t c = 0; c < got.cols(); ++c)
            EXPECT_NEAR(got(r, c), want(r, c), tol)
                << "at (" << r << ", " << c << ")";
}

TEST(Kernels, BlockedMatchesNaiveWithinTolerance)
{
    Rng rng(11);
    // Shapes straddling the 4x8 / 4x4 register tiles: full tiles,
    // ragged edges, single rows/cols, and the paper's layer widths.
    const std::size_t shapes[][3] = {
        {1, 1, 1},   {3, 5, 7},    {4, 8, 16},  {5, 9, 17},
        {8, 6, 128}, {64, 128, 6}, {33, 65, 31}, {2, 1, 64},
    };
    for (const auto &s : shapes) {
        const Matrix a = randomMatrix(s[0], s[2], rng);
        const Matrix b = randomMatrix(s[2], s[1], rng);
        const Matrix bt = randomMatrix(s[1], s[2], rng);
        const Matrix at = randomMatrix(s[2], s[0], rng);

        const Matrix c_ref = refMultiply(a, b);
        const Matrix cb_ref = refMultiplyTransB(a, bt);
        const Matrix ca_ref = refMultiplyTransA(at, b);

        // The reference keeps the baseline flags and one summation
        // order, so its three orientations agree bit for bit -- that
        // is what makes it the ground truth.
        expectSameValues(refMultiplyTransA(a.transposed(), b), c_ref);
        expectSameValues(refMultiplyTransB(a, b.transposed()), c_ref);

        const Matrix c = Matrix::multiply(a, b);
        const Matrix cb = Matrix::multiplyTransB(a, bt);
        const Matrix ca = Matrix::multiplyTransA(at, b);

        // The kernels accumulate in the same increasing-k order but
        // with fused multiply-adds (and a lane-split transB dot), so
        // they are only required to sit inside the documented
        // tolerance.
        expectWithinTolerance(c, c_ref, kBlockedTol);
        expectWithinTolerance(cb, cb_ref, kBlockedTol);
        expectWithinTolerance(ca, ca_ref, kBlockedTol);

        // The results are bit-identical run to run.
        EXPECT_TRUE(c == Matrix::multiply(a, b));
        EXPECT_TRUE(cb == Matrix::multiplyTransB(a, bt));
        EXPECT_TRUE(ca == Matrix::multiplyTransA(at, b));
    }
}

TEST(Kernels, LinearForwardFusesBiasCorrectly)
{
    Rng rng(12);
    for (const std::size_t batch : {1u, 5u, 64u}) {
        const Matrix x = randomMatrix(batch, 6, rng);
        const Matrix w = randomMatrix(32, 6, rng);
        const Matrix b = randomMatrix(1, 32, rng);

        Matrix y(batch, 32);
        kernels::linearForward(batch, 6, 32, x.data(), w.data(),
                               b.data(), y.data());

        // Accumulators seeded with the bias, then the increasing-k
        // dot products: the fused forward is exactly the accumulating
        // transB GEMM over bias rows, and within the documented FMA
        // tolerance of the reference doing the same.
        Matrix seeded(batch, 32);
        for (std::size_t r = 0; r < batch; ++r)
            for (std::size_t j = 0; j < 32; ++j)
                seeded(r, j) = b(0, j);
        Matrix y_gemm = seeded;
        kernels::gemmTransB(batch, 32, 6, x.data(), w.data(),
                            y_gemm.data(), true);
        Matrix y_ref = seeded;
        reference::gemmTransB(batch, 32, 6, x.data(), w.data(),
                              y_ref.data(), true);
        expectSameValues(y, y_gemm);
        expectWithinTolerance(y, y_ref, kBlockedTol);
    }
}

/**
 * Regression for the old sparsity shortcut: Matrix::multiply used to
 * skip the inner accumulation whenever a(i, k) == 0.0, so a NaN or
 * Inf in B sitting behind a zero in A silently vanished instead of
 * poisoning the product. Every product term must always be formed.
 */
TEST(Kernels, NanAndInfPropagateAcrossZeros)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();

    // A's second column is entirely zero; B's second row carries the
    // non-finite values that the zero used to mask.
    Matrix a(2, 3);
    a(0, 0) = 1.0; a(0, 1) = 0.0; a(0, 2) = 2.0;
    a(1, 0) = 3.0; a(1, 1) = 0.0; a(1, 2) = 4.0;
    Matrix b(3, 2);
    b(0, 0) = 1.0; b(0, 1) = 1.0;
    b(1, 0) = nan; b(1, 1) = inf;
    b(2, 0) = 1.0; b(2, 1) = 1.0;

    const Matrix c = Matrix::multiply(a, b);
    expectSameValues(c, refMultiply(a, b));
    // 0 * NaN = NaN and 0 * Inf = NaN: every output touches k=1.
    for (std::size_t r = 0; r < c.rows(); ++r)
        for (std::size_t col = 0; col < c.cols(); ++col)
            EXPECT_TRUE(std::isnan(c(r, col)))
                << "at (" << r << ", " << col << ")";

    // Same through the transposed-A path (the other site that
    // carried the zero-skip): A^T has the zero column as a row.
    const Matrix ct = Matrix::multiplyTransA(a.transposed(), b);
    expectSameValues(ct, refMultiplyTransA(a.transposed(), b));
    for (std::size_t r = 0; r < ct.rows(); ++r)
        for (std::size_t col = 0; col < ct.cols(); ++col)
            EXPECT_TRUE(std::isnan(ct(r, col)));

    // And A * B^T.
    const Matrix cbt = Matrix::multiplyTransB(a, b.transposed());
    expectSameValues(cbt, refMultiplyTransB(a, b.transposed()));
}

TEST(Workspace, GrowthStopsAfterWarmup)
{
    kernels::Workspace ws;
    const std::size_t base = ws.reserveSlots(2);
    EXPECT_EQ(base, 0u);
    EXPECT_EQ(ws.slotCount(), 2u);

    ws.buffer(0, 8, 8);
    ws.buffer(1, 4, 4);
    const std::uint64_t after_first = ws.growthEvents();
    EXPECT_GE(after_first, 2u);

    // Re-requesting the same or smaller shapes must not grow.
    ws.buffer(0, 8, 8);
    ws.buffer(0, 2, 8);
    ws.buffer(1, 1, 16); // same element count, reshaped
    EXPECT_EQ(ws.growthEvents(), after_first);

    // A larger request grows once, then is stable again.
    ws.buffer(0, 16, 16);
    const std::uint64_t after_growth = ws.growthEvents();
    EXPECT_GT(after_growth, after_first);
    ws.buffer(0, 16, 16);
    ws.buffer(0, 8, 8);
    EXPECT_EQ(ws.growthEvents(), after_growth);
}

TEST(Workspace, SlotsAreStableAcrossLaterReservations)
{
    kernels::Workspace ws;
    const std::size_t first = ws.reserveSlots(1);
    Matrix &a = ws.buffer(first, 4, 4);
    a.fill(7.0);
    // A second reservation (another module attaching) must not move
    // the first module's buffers.
    const std::size_t second = ws.reserveSlots(3);
    EXPECT_EQ(second, 1u);
    ws.buffer(second + 2, 32, 32);
    EXPECT_EQ(&ws.buffer(first, 4, 4), &a);
    EXPECT_EQ(a(0, 0), 7.0);
}

TEST(WorkspaceDeathTest, OutOfRangeSlotPanics)
{
    kernels::Workspace ws;
    ws.reserveSlots(1);
    EXPECT_DEATH(ws.buffer(5, 1, 1), "slot");
}

} // namespace
} // namespace vaesa
