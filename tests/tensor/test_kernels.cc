/** @file Kernel-layer tests: every GEMM output bit for bit against a
 *  scalar ascending-k std::fma chain (the kernels' contract), every
 *  elementwise kernel bit for bit against its plain scalar loop,
 *  GEMM-vs-reference equivalence within the documented tolerance
 *  (including NaN/Inf operands -- the old zero-skip sparsity
 *  shortcut masked their propagation), exact agreement of the
 *  reference orientations, and run-to-run determinism. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "../common/reference_adam.hh"
#include "../common/reference_gemm.hh"
#include "tensor/kernels/kernels.hh"
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

/** The signature kernels::gemm* and reference::gemm* share. */
using Gemm = void (*)(std::size_t, std::size_t, std::size_t,
                      const double *, const double *, double *, bool);

/** C = A * B by the tuned kernel, or by the reference when @p ref. */
Matrix
multiply(const Matrix &a, const Matrix &b, bool ref = false)
{
    Matrix c(a.rows(), b.cols());
    const Gemm gemm = ref ? reference::gemm : kernels::gemm;
    gemm(a.rows(), b.cols(), a.cols(), a.data(), b.data(), c.data(),
         false);
    return c;
}

/** C = A^T * B. */
Matrix
multiplyTransA(const Matrix &a, const Matrix &b, bool ref = false)
{
    Matrix c(a.cols(), b.cols());
    const Gemm gemm = ref ? reference::gemmTransA : kernels::gemmTransA;
    gemm(a.cols(), b.cols(), a.rows(), a.data(), b.data(), c.data(),
         false);
    return c;
}

/** C = A * B^T by the reference (the tuned forward is linearForward). */
Matrix
referenceTransB(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.rows());
    reference::gemmTransB(a.rows(), b.rows(), a.cols(), a.data(),
                          b.data(), c.data(), false);
    return c;
}

/** Transposed copy. */
Matrix
transposed(const Matrix &m)
{
    Matrix t(m.cols(), m.rows());
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            t(c, r) = m(r, c);
    return t;
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
 * Tolerance for GEMM-vs-reference drift. The kernels fuse each
 * multiply-add where the reference rounds the product first, so each
 * of the k accumulation steps can differ by one rounding of the
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

/**
 * The kernels' contract for one output element:
 * fma(a[k-1], b[k-1], ... fma(a[0], b[0], init)), with a[kk] at
 * a + kk * aStep and b[kk] at b + kk * bStep.
 */
double
fmaChain(std::size_t k, const double *a, std::size_t aStep,
         const double *b, std::size_t bStep, double init)
{
    double acc = init;
    for (std::size_t kk = 0; kk < k; ++kk)
        acc = std::fma(a[kk * aStep], b[kk * bStep], acc);
    return acc;
}

/** One kernel run and its element-wise fma-chain oracle. */
struct OracleRun
{
    std::vector<double> got;
    std::vector<double> want;
};

/**
 * Run every kernel entry point on one (m, n, k) and form, for each
 * output, the scalar chain it must equal. C = A * B with A (m x k),
 * B (k x n) in the orientation's own storage. With @p isa the same
 * operands go through that micro-kernel by name (kernels::gemmOn),
 * whatever kernels::gemmIsa() picked: linearForward as the plain
 * orientation over W^T, which is what it runs after its transpose.
 */
std::vector<OracleRun>
oracleRuns(std::size_t m, std::size_t n, std::size_t k, Rng &rng,
           std::optional<kernels::GemmIsa> isa = std::nullopt)
{
    const Matrix a = randomMatrix(m, k, rng);   // gemm's A, x
    const Matrix at = randomMatrix(k, m, rng);  // transA's A
    const Matrix b = randomMatrix(k, n, rng);   // gemm, transA
    const Matrix bt = randomMatrix(n, k, rng);  // W
    const Matrix c0 = randomMatrix(m, n, rng);  // accumulate init
    const Matrix bias = randomMatrix(1, n, rng);
    const Matrix btt = transposed(bt);

    std::vector<OracleRun> runs;
    for (const bool accumulate : {false, true}) {
        for (const bool trans_a : {false, true}) {
            Matrix c = c0;
            OracleRun run;
            const double *init = accumulate ? c0.data() : nullptr;
            if (isa)
                EXPECT_TRUE(kernels::gemmOn(
                    *isa, m, n, k, trans_a ? at.data() : a.data(),
                    trans_a ? 1 : k, trans_a ? m : 1, b.data(), init,
                    n, c.data()));
            else if (trans_a)
                kernels::gemmTransA(m, n, k, at.data(), b.data(),
                                    c.data(), accumulate);
            else
                kernels::gemm(m, n, k, a.data(), b.data(), c.data(),
                              accumulate);
            for (std::size_t i = 0; i < m; ++i) {
                for (std::size_t j = 0; j < n; ++j) {
                    const double init = accumulate ? c0(i, j) : 0.0;
                    const double want =
                        trans_a ? fmaChain(k, at.data() + i, m,
                                           b.data() + j, n, init)
                                : fmaChain(k, a.data() + i * k, 1,
                                           b.data() + j, n, init);
                    run.got.push_back(c(i, j));
                    run.want.push_back(want);
                }
            }
            runs.push_back(std::move(run));
        }
    }

    Matrix y(m, n);
    Matrix wt(k, n);
    if (isa)
        EXPECT_TRUE(kernels::gemmOn(*isa, m, n, k, a.data(), k, 1,
                                    btt.data(), bias.data(), 0,
                                    y.data()));
    else
        kernels::linearForward(m, k, n, a.data(), bt.data(),
                               bias.data(), wt.data(), y.data());
    OracleRun run;
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            run.got.push_back(y(i, j));
            run.want.push_back(fmaChain(k, a.data() + i * k, 1,
                                        bt.data() + j * k, 1,
                                        bias(0, j)));
        }
    }
    runs.push_back(std::move(run));
    return runs;
}

/** Whether this build and CPU run @p isa (an empty GEMM as probe). */
bool
runs(kernels::GemmIsa isa)
{
    return kernels::gemmOn(isa, 0, 0, 0, nullptr, 0, 0, nullptr,
                           nullptr, 0, nullptr);
}

/**
 * The tables an oracle test checks: the public entry points (the
 * micro-kernel gemmIsa() picked), and by name the one a CPU without
 * avx512f runs, AVX2 on x86-64 and std::fma elsewhere. The AVX-512
 * table has its own tests, which skip on CPUs without it.
 */
std::vector<std::optional<kernels::GemmIsa>>
dispatchedAndPortable()
{
    return {std::nullopt, runs(kernels::GemmIsa::Avx2)
                              ? kernels::GemmIsa::Avx2
                              : kernels::GemmIsa::Generic};
}

/** Name of an oracle path, for failure messages. */
std::string
pathName(std::optional<kernels::GemmIsa> isa)
{
    return isa ? kernels::gemmIsaName(*isa)
               : std::string("dispatched (") +
                     kernels::gemmIsaName(kernels::gemmIsa()) + ")";
}

/** Elements whose bits differ. */
std::size_t
bitMismatches(const std::vector<double> &got,
              const std::vector<double> &want)
{
    std::size_t bad = 0;
    for (std::size_t i = 0; i < got.size(); ++i)
        bad += std::bit_cast<std::uint64_t>(got[i]) !=
               std::bit_cast<std::uint64_t>(want[i]);
    return bad;
}

/** Elements of @p runs whose bits differ from the oracle. */
std::size_t
bitMismatches(const std::vector<OracleRun> &runs)
{
    std::size_t bad = 0;
    for (const OracleRun &run : runs)
        bad += bitMismatches(run.got, run.want);
    return bad;
}

/**
 * Bit mismatches over the 13 Linear layers of the default model at
 * batch 64, as (in, out): VAE encoder trunk, mu and logvar heads,
 * decoder, then the latency and energy predictors (latent 4 + 8
 * layer features in). Each layer's forward, dX and dW shape runs
 * through every orientation on @p isa's path.
 */
std::size_t
trainLayerMismatches(std::optional<kernels::GemmIsa> isa)
{
    const std::size_t batch = 64;
    const std::size_t layers[][2] = {
        {6, 128}, {128, 64}, {64, 4},  {64, 4},  {4, 64},
        {64, 128}, {128, 6}, {12, 64}, {64, 64}, {64, 1},
        {12, 64}, {64, 64}, {64, 1},
    };
    Rng rng(25);
    std::size_t bad = 0;
    for (const auto &layer : layers) {
        const std::size_t in = layer[0];
        const std::size_t out = layer[1];
        const std::size_t shapes[][3] = {
            {batch, out, in}, // forward
            {batch, in, out}, // dX = dY * W
            {out, in, batch}, // dW = dY^T * X
        };
        for (const auto &s : shapes)
            bad += bitMismatches(oracleRuns(s[0], s[1], s[2], rng, isa));
    }
    return bad;
}

/** Bit mismatches over every m in 1..maxM, n in 1..maxN, k in 1..13. */
std::size_t
raggedMismatches(std::optional<kernels::GemmIsa> isa, std::size_t maxM,
                 std::size_t maxN)
{
    Rng rng(26);
    std::size_t bad = 0;
    for (std::size_t m = 1; m <= maxM; ++m)
        for (std::size_t n = 1; n <= maxN; ++n)
            for (std::size_t k = 1; k <= 13; ++k)
                bad += bitMismatches(oracleRuns(m, n, k, rng, isa));
    return bad;
}

/** Bit mismatches of a k = 0 GEMM, which must return its init. */
std::size_t
emptyReductionMismatches(std::optional<kernels::GemmIsa> isa)
{
    Rng rng(27);
    return bitMismatches(oracleRuns(5, 9, 0, rng, isa)) +
           bitMismatches(oracleRuns(11, 19, 0, rng, isa));
}

TEST(KernelOracle, TrainLayerShapesMatchFmaChainBitForBit)
{
    for (const auto isa : dispatchedAndPortable())
        EXPECT_EQ(trainLayerMismatches(isa), 0u) << pathName(isa);
}

TEST(KernelOracle, RaggedShapesMatchFmaChainBitForBit)
{
    // m and n in 1..13: every tile height 1..4 and every tail width
    // 1..7 past a full 8-wide tile of the 4 x 8 table, and the empty
    // and short chains.
    for (const auto isa : dispatchedAndPortable())
        EXPECT_EQ(raggedMismatches(isa, 13, 13), 0u) << pathName(isa);
}

TEST(KernelOracle, EmptyReductionIsTheInit)
{
    for (const auto isa : dispatchedAndPortable())
        EXPECT_EQ(emptyReductionMismatches(isa), 0u) << pathName(isa);
}

constexpr const char *kNoAvx512 =
    "no AVX-512 GEMM here: the CPU does not report avx512f, or the "
    "build is not x86-64";

TEST(KernelOracle, Avx512TrainLayerShapesMatchFmaChainBitForBit)
{
    if (!runs(kernels::GemmIsa::Avx512))
        GTEST_SKIP() << kNoAvx512;
    EXPECT_EQ(trainLayerMismatches(kernels::GemmIsa::Avx512), 0u);
}

TEST(KernelOracle, Avx512RaggedShapesMatchFmaChainBitForBit)
{
    if (!runs(kernels::GemmIsa::Avx512))
        GTEST_SKIP() << kNoAvx512;
    // m in 1..17 and n in 1..33: every edge height 1..8 below a full
    // 8-row tile and every masked edge width 1..16 past a full
    // 16-wide tile of the 8 x 16 table.
    EXPECT_EQ(raggedMismatches(kernels::GemmIsa::Avx512, 17, 33), 0u);
}

TEST(KernelOracle, Avx512EmptyReductionIsTheInit)
{
    if (!runs(kernels::GemmIsa::Avx512))
        GTEST_SKIP() << kNoAvx512;
    EXPECT_EQ(emptyReductionMismatches(kernels::GemmIsa::Avx512), 0u);
}

/**
 * n inputs for the elementwise oracle: uniform(-4, 4), with about a
 * third of the elements, in random lanes, replaced by ±0, a
 * subnormal, ±inf, NaN or a finite extreme.
 */
std::vector<double>
elementwiseInputs(std::size_t n, Rng &rng)
{
    using limits = std::numeric_limits<double>;
    const double specials[] = {
        0.0, -0.0, limits::denorm_min(), -limits::denorm_min(),
        -3e-310, limits::infinity(), -limits::infinity(),
        limits::quiet_NaN(), limits::max(), limits::lowest(),
        limits::min()};
    std::vector<double> x(n);
    for (double &e : x)
        e = rng.index(3) == 0
                ? specials[rng.index(std::size(specials))]
                : rng.uniform(-4.0, 4.0);
    return x;
}

TEST(KernelOracle, ElementwiseMatchScalarBitForBit)
{
    // Every length 0..67 covers each vector width's tail; this TU
    // keeps the baseline flags, so its loops are the scalar oracle.
    Rng rng(28);
    std::map<std::string, std::size_t> bad;
    for (std::size_t n = 0; n <= 67; ++n) {
        const std::vector<double> x = elementwiseInputs(n, rng);
        const std::vector<double> g = elementwiseInputs(n, rng);
        for (const double slope : {0.0, 0.01}) {
            std::vector<double> got = x;
            std::vector<double> out = x;
            kernels::leakyReluForward(got.data(), n, slope);
            for (double &e : out)
                e = e > 0.0 ? e : slope * e;
            bad["leakyReluForward"] += bitMismatches(got, out);

            got = g;
            std::vector<double> want = g;
            kernels::leakyReluBackward(got.data(), out.data(), n,
                                       slope);
            for (std::size_t i = 0; i < n; ++i)
                want[i] *= out[i] > 0.0 ? 1.0 : slope;
            bad["leakyReluBackward"] += bitMismatches(got, want);
        }

        std::vector<double> got = x;
        std::vector<double> out = x;
        kernels::sigmoidForward(got.data(), n);
        for (double &e : out)
            e = 1.0 / (1.0 + std::exp(-e));
        bad["sigmoidForward"] += bitMismatches(got, out);
        got = g;
        std::vector<double> want = g;
        kernels::sigmoidBackward(got.data(), out.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            want[i] *= out[i] * (1.0 - out[i]);
        bad["sigmoidBackward"] += bitMismatches(got, want);

        const std::size_t rows = 3;
        const std::vector<double> block =
            elementwiseInputs(rows * n, rng);
        got = x;
        want = x;
        kernels::addColSums(block.data(), rows, n, got.data());
        for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t c = 0; c < n; ++c)
                want[c] += block[r * n + c];
        bad["addColSums"] += bitMismatches(got, want);

        // Adam at step 3 of the default hyperparameters, and with
        // non-default ones; the moments and weights are special too.
        for (const kernels::AdamCoefficients c :
             {kernels::AdamCoefficients{0.9, 0.999, 1.0 - 0.9,
                                        1.0 - 0.999, 1e-3, 1e-8,
                                        1.0 - std::pow(0.9, 3),
                                        1.0 - std::pow(0.999, 3)},
              kernels::AdamCoefficients{0.5, 0.75, 1.0 - 0.5,
                                        1.0 - 0.75, 0.3, 1e-4,
                                        1.0 - std::pow(0.5, 7),
                                        1.0 - std::pow(0.75, 7)}}) {
            const std::vector<double> m0 = elementwiseInputs(n, rng);
            const std::vector<double> v0 = elementwiseInputs(n, rng);
            std::vector<double> m = m0, v = v0, w = x;
            std::vector<double> mRef = m0, vRef = v0, wRef = x;
            kernels::adamUpdate(n, g.data(), m.data(), v.data(),
                                w.data(), c);
            reference::adamUpdate(n, g.data(), mRef.data(),
                                  vRef.data(), wRef.data(), c.lr,
                                  c.beta1, c.beta2, c.eps, c.bc1,
                                  c.bc2);
            bad["adamUpdate.m"] += bitMismatches(m, mRef);
            bad["adamUpdate.v"] += bitMismatches(v, vRef);
            bad["adamUpdate.w"] += bitMismatches(w, wRef);
        }
    }
    for (const auto &[kernel, count] : bad)
        EXPECT_EQ(count, 0u) << kernel;
}

TEST(Kernels, BlockedMatchesNaiveWithinTolerance)
{
    Rng rng(11);
    // Shapes straddling the 4x8 and 8x16 register tiles: full tiles,
    // ragged edges, single rows/cols, and the paper's layer widths.
    const std::size_t shapes[][3] = {
        {1, 1, 1},   {3, 5, 7},    {4, 8, 16},  {5, 9, 17},
        {8, 6, 128}, {64, 128, 6}, {33, 65, 31}, {2, 1, 64},
    };
    for (const auto &s : shapes) {
        const Matrix a = randomMatrix(s[0], s[2], rng);
        const Matrix b = randomMatrix(s[2], s[1], rng);
        const Matrix at = randomMatrix(s[2], s[0], rng);

        const Matrix c_ref = multiply(a, b, true);
        const Matrix ca_ref = multiplyTransA(at, b, true);

        // The reference keeps the baseline flags and one summation
        // order, so its three orientations agree bit for bit -- that
        // is what makes it the ground truth.
        expectSameValues(multiplyTransA(transposed(a), b, true), c_ref);
        expectSameValues(referenceTransB(a, transposed(b)), c_ref);

        const Matrix c = multiply(a, b);
        const Matrix ca = multiplyTransA(at, b);

        // The kernels accumulate in the same increasing-k order but
        // with fused multiply-adds, so they are only required to sit
        // inside the documented tolerance.
        expectWithinTolerance(c, c_ref, kBlockedTol);
        expectWithinTolerance(ca, ca_ref, kBlockedTol);

        // The results are bit-identical run to run.
        EXPECT_TRUE(c == multiply(a, b));
        EXPECT_TRUE(ca == multiplyTransA(at, b));
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
        Matrix wt(6, 32);
        kernels::linearForward(batch, 6, 32, x.data(), w.data(),
                               b.data(), wt.data(), y.data());
        expectSameValues(wt, transposed(w));

        // Accumulators seeded with the bias, then the increasing-k
        // fma chain: the fused forward is exactly the accumulating
        // GEMM over W^T and bias rows, and within the documented FMA
        // tolerance of the reference doing the same.
        Matrix seeded(batch, 32);
        for (std::size_t r = 0; r < batch; ++r)
            for (std::size_t j = 0; j < 32; ++j)
                seeded(r, j) = b(0, j);
        Matrix y_gemm = seeded;
        kernels::gemm(batch, 32, 6, x.data(), transposed(w).data(),
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

    const Matrix c = multiply(a, b);
    expectSameValues(c, multiply(a, b, true));
    // 0 * NaN = NaN and 0 * Inf = NaN: every output touches k=1.
    for (std::size_t r = 0; r < c.rows(); ++r)
        for (std::size_t col = 0; col < c.cols(); ++col)
            EXPECT_TRUE(std::isnan(c(r, col)))
                << "at (" << r << ", " << col << ")";

    // Same through the transposed-A path (the other site that
    // carried the zero-skip): A^T has the zero column as a row.
    const Matrix ct = multiplyTransA(transposed(a), b);
    expectSameValues(ct, multiplyTransA(transposed(a), b, true));
    for (std::size_t r = 0; r < ct.rows(); ++r)
        for (std::size_t col = 0; col < ct.cols(); ++col)
            EXPECT_TRUE(std::isnan(ct(r, col)));
}

} // namespace
} // namespace vaesa
