/**
 * @file
 * Reference GEMM: the plain triple loops the kernel layer
 * (src/tensor/kernels/kernels.hh) is tested and benchmarked against.
 *
 * Each output element is formed as ((0 + p0) + p1) + ... in
 * increasing k order with every product always formed, so a zero in
 * one operand never masks a NaN or Inf in the other. The library is
 * built at the project's baseline flags (no FMA contraction), which
 * makes the three orientations agree bit for bit and reproduces the
 * seed numerics. It is linked only by the tests and
 * bench/gemm_kernels, never by vaesa_core.
 *
 * Matrices are dense row-major doubles and outputs never alias
 * inputs.
 */

#ifndef VAESA_TESTS_COMMON_REFERENCE_GEMM_HH
#define VAESA_TESTS_COMMON_REFERENCE_GEMM_HH

#include <cstddef>

namespace vaesa::reference {

/** C (m x n) = A (m x k) * B (k x n). */
void gemm(std::size_t m, std::size_t n, std::size_t k, const double *a,
          const double *b, double *c, bool accumulate = false);

/** C (m x n) = A^T * B, A stored (k x m). */
void gemmTransA(std::size_t m, std::size_t n, std::size_t k,
                const double *a, const double *b, double *c,
                bool accumulate = false);

/** C (m x n) = A (m x k) * B^T, B stored (n x k). */
void gemmTransB(std::size_t m, std::size_t n, std::size_t k,
                const double *a, const double *b, double *c,
                bool accumulate = false);

} // namespace vaesa::reference

#endif // VAESA_TESTS_COMMON_REFERENCE_GEMM_HH
