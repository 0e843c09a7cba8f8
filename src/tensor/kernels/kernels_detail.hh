/**
 * @file
 * Private splits of the GEMM layer: the naive reference bodies,
 * called by the public dispatch (kernels.cc) and defined in their own
 * translation unit (kernels_naive.cc).
 *
 * The naive bodies live in their own TU built at the project's
 * baseline optimization level, so VAESA_KERNEL=naive reproduces the
 * pre-kernel-layer numerics exactly; the blocked bodies are compiled
 * with the tuned per-file flags (see src/tensor/CMakeLists.txt).
 *
 * Matrices are dense row-major doubles and outputs never alias
 * inputs.
 */

#ifndef VAESA_TENSOR_KERNELS_KERNELS_DETAIL_HH
#define VAESA_TENSOR_KERNELS_KERNELS_DETAIL_HH

#include <cstddef>

namespace vaesa::kernels::detail {

/** C (m x n) = A (m x k) * B (k x n). */
void gemmNaive(std::size_t m, std::size_t n, std::size_t k,
               const double *a, const double *b, double *c,
               bool accumulate);

/** C (m x n) = A^T * B, A stored (k x m). */
void gemmTransANaive(std::size_t m, std::size_t n, std::size_t k,
                     const double *a, const double *b, double *c,
                     bool accumulate);

/** C (m x n) = A (m x k) * B^T, B stored (n x k). */
void gemmTransBNaive(std::size_t m, std::size_t n, std::size_t k,
                     const double *a, const double *b, double *c,
                     bool accumulate);

} // namespace vaesa::kernels::detail

#endif // VAESA_TENSOR_KERNELS_KERNELS_DETAIL_HH
