/**
 * @file
 * Raw-pointer compute kernels behind the Matrix/nn hot path: GEMM in
 * the three orientations the MLPs need, a fused linear-layer forward,
 * column sums, and in-place activation forward/backward loops.
 *
 * There is one GEMM implementation: register-tiled micro-kernels
 * with restrict-qualified pointers and contiguous inner loops,
 * compiled with tuned per-file flags (-O3, unrolling, AVX2+FMA on
 * x86-64; see src/tensor/CMakeLists.txt). Each output element is
 * accumulated in strictly increasing k order, but fused multiply-adds
 * round once per a*b+c instead of twice, so results may differ in
 * low-order bits from the plain triple loops the tests keep as a
 * reference (tests/common/reference_gemm.hh). The equivalence tests
 * bound that drift with an explicit relative tolerance (see
 * docs/PERFORMANCE.md); NaN/Inf propagation is identical.
 *
 * Determinism contract: fixed inputs give bit-identical outputs, run
 * to run. Every GEMM runs on the calling thread.
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
 * C (m x n) = A * B^T with B given untransposed as (n x k);
 * A is (m x k). The forward orientation for (out x in) weights.
 */
void gemmTransB(std::size_t m, std::size_t n, std::size_t k,
                const double *a, const double *b, double *c,
                bool accumulate = false);

/**
 * Fused affine forward: Y (batch x out) = X (batch x in) * W^T + b,
 * with W (out x in) and b length out. One pass over Y: the bias
 * seeds the accumulators instead of a second broadcast sweep.
 */
void linearForward(std::size_t batch, std::size_t in, std::size_t out,
                   const double *x, const double *w, const double *b,
                   double *y);

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

/** In place: x[i] = tanh(x[i]). */
void tanhForward(double *x, std::size_t n);

/** In place: grad[i] *= 1 - out[i]^2. */
void tanhBackward(double *grad, const double *out, std::size_t n);

} // namespace vaesa::kernels

#endif // VAESA_TENSOR_KERNELS_KERNELS_HH
