/**
 * @file
 * Raw-pointer compute kernels behind the Matrix/nn hot path: GEMM in
 * the two orientations the MLPs' backward needs, a fused linear-layer
 * forward, column sums, in-place activation forward/backward loops,
 * and the Adam optimizer's per-element update.
 *
 * There is one GEMM implementation: a register-tiled broadcast
 * micro-kernel that every orientation runs through (A is read with
 * (row, k) strides, B as contiguous rows; linearForward first
 * transposes W into the caller's buffer). Each output element is
 * computed as the explicit fused multiply-add chain
 *
 *     fma(a[k-1], b[k-1], ... fma(a[1], b[1], fma(a[0], b[0], init)))
 *
 * in strictly increasing k, where init is +0.0, the old C value
 * (accumulate) or the bias (linearForward). The chain is written in
 * the source and runs on one of three lane widths, picked once per
 * process from CPUID (gemmIsa()): AVX-512 lanes in 8 x 16 tiles when
 * the CPU reports avx512f, else AVX2 FMA lanes in 4 x 8 tiles on
 * x86-64, else std::fma. The file is built with -ffp-contract=off,
 * so all three give the same bits, whatever the compiler, the
 * optimization level, the tile an element lands in or the SIMD
 * width. tests/tensor/test_kernels.cc checks every element of each
 * micro-kernel the host can run against a scalar std::fma chain bit
 * for bit. The plain triple loops the tests keep as a reference
 * (tests/common/reference_gemm.hh) round each product separately, so
 * they agree only within the tolerance docs/PERFORMANCE.md states;
 * NaN/Inf propagation is identical.
 *
 * The elementwise loops (activations, column sums, Adam) do the same
 * IEEE operations in the same order as the plain scalar loop each
 * one documents, so a vector lane and a scalar iteration agree bit
 * for bit: every select reads both arms and has no side effects (a
 * blend, not a branch), a divide stays a divide, and a square root is
 * the correctly rounded one. tests/tensor/test_kernels.cc checks each
 * against its scalar loop built at the baseline flags.
 *
 * Determinism contract: fixed inputs give bit-identical outputs, run
 * to run and build to build. Every GEMM runs on the calling thread.
 *
 * This directory is the only place in the tree where raw SIMD
 * intrinsics or OpenMP pragmas may appear (enforced by tools/check);
 * everything else must go through these entry points.
 *
 * No output pointer may alias an input. All matrices are dense
 * row-major doubles, matching Matrix's storage.
 */

#ifndef VAESA_TENSOR_KERNELS_KERNELS_HH
#define VAESA_TENSOR_KERNELS_KERNELS_HH

#include <cstddef>

namespace vaesa::kernels {

/** The GEMM micro-kernels: 8 x 16 tiles of AVX-512 lanes, 4 x 8 tiles
 *  of AVX2 lanes, or 4 x 8 tiles of std::fma scalars. */
enum class GemmIsa { Avx512, Avx2, Generic };

/** The micro-kernel every GEMM in this process runs, picked once
 *  from CPUID: Avx512 or Avx2 on x86-64, Generic elsewhere. The GP's
 *  bound pass (GaussianProcess::boundBatch) follows the same pick:
 *  its AVX-512 clone runs only where this is Avx512. */
GemmIsa gemmIsa();

/** "avx512", "avx2" or "generic". */
const char *gemmIsaName(GemmIsa isa);

/**
 * Test seam: one GEMM through @p isa's micro-kernel, whichever one
 * gemmIsa() picked. C (m x n) = A * B over k, with A(i, kk) at
 * a[i * aRow + kk * aK], B (k x n) and C row-major; each output
 * starts from init[i * initRow + j], or from +0.0 when init is null.
 * Returns false, writing nothing, when this build or this CPU cannot
 * run @p isa (AVX2 exists only on x86-64 and Generic only elsewhere).
 */
bool gemmOn(GemmIsa isa, std::size_t m, std::size_t n, std::size_t k,
            const double *a, std::size_t aRow, std::size_t aK,
            const double *b, const double *init, std::size_t initRow,
            double *c);

/**
 * C (m x n) = A (m x k) * B (k x n).
 * @param accumulate when true, add into C instead of overwriting.
 */
void gemm(std::size_t m, std::size_t n, std::size_t k, const double *a,
          const double *b, double *c, bool accumulate = false);

/**
 * C (m x n) = A^T * B with A given untransposed as (k x m);
 * B is (k x n). The weight-gradient orientation.
 */
void gemmTransA(std::size_t m, std::size_t n, std::size_t k,
                const double *a, const double *b, double *c,
                bool accumulate = false);

/**
 * Fused affine forward: Y (batch x out) = X (batch x in) * W^T + b,
 * with W (out x in) and b length out. W^T is first written to the
 * caller's scratch @p wt (in x out), then one pass over Y in which
 * the bias seeds the accumulators.
 */
void linearForward(std::size_t batch, std::size_t in, std::size_t out,
                   const double *x, const double *w, const double *b,
                   double *wt, double *y);

/** sums[c] += sum over rows of x[r][c]; x is (rows x cols). */
void addColSums(const double *x, std::size_t rows, std::size_t cols,
                double *sums);

/** In place: x[i] = x[i] > 0 ? x[i] : slope * x[i]. */
void leakyReluForward(double *x, std::size_t n, double slope);

/**
 * In place: grad[i] *= (out[i] > 0 ? 1 : slope), where out is the
 * matching forward OUTPUT. Valid because LeakyReLU with slope in
 * (0, 1] is sign-preserving, so out > 0 iff in > 0 and the two
 * passes branch identically (including at exactly 0 and for NaN).
 */
void leakyReluBackward(double *grad, const double *out, std::size_t n,
                       double slope);

/** In place: x[i] = 1 / (1 + exp(-x[i])). */
void sigmoidForward(double *x, std::size_t n);

/** In place: grad[i] *= out[i] * (1 - out[i]). */
void sigmoidBackward(double *grad, const double *out, std::size_t n);

/** The loop invariants of one Adam step, passed by value so no
 *  reload through the optimizer can block vectorization. */
struct AdamCoefficients
{
    double beta1;
    double beta2;
    /** 1 - beta1. */
    double oneMinusBeta1;
    /** 1 - beta2. */
    double oneMinusBeta2;
    double lr;
    double eps;
    /** First-moment bias correction 1 - beta1^t. */
    double bc1;
    /** Second-moment bias correction 1 - beta2^t. */
    double bc2;
};

/**
 * One Adam update of n parameters, in place, element by element:
 *
 *     m[i] = beta1 * m[i] + oneMinusBeta1 * g[i]
 *     v[i] = beta2 * v[i] + oneMinusBeta2 * g[i] * g[i]
 *     w[i] -= lr * (m[i] / bc1) / (sqrt(v[i] / bc2) + eps)
 *
 * with each product and sum rounded separately (left to right) and
 * no reciprocal taken for a divide.
 */
void adamUpdate(std::size_t n, const double *g, double *m, double *v,
                double *w, AdamCoefficients c);

} // namespace vaesa::kernels

#endif // VAESA_TENSOR_KERNELS_KERNELS_HH
