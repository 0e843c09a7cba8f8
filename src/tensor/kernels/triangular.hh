/**
 * @file
 * Vector kernels for the Gaussian process's triangular algebra: the
 * Cholesky factorization, forward substitution of one right-hand
 * side, and forward substitution of a tile of right-hand sides.
 *
 * Every element keeps the scalar textbook chain
 *
 *     L(i, j) = (a(i, j) - L(i, 0) L(j, 0) - ... - L(i, j-1) L(j, j-1))
 *               / L(j, j)
 *
 * (the diagonal takes the square root instead of the divide), with k
 * ascending and each product rounded before it is subtracted. The
 * kernels only run several such chains side by side: four factor
 * rows in a vector against one broadcast L(j, k), four columns of a
 * single row as independent scalar chains, four rows of a solve
 * sharing y[k], or the 32 right-hand sides of a tile against one
 * broadcast L(i, k). The file is built with -ffp-contract=off (see
 * the tensor CMakeLists), so no multiply-subtract is fused, and the
 * results are bit-identical to the plain one-element loops the tests
 * keep as oracles (tests/tensor/test_linalg.cc), on AVX2 lanes
 * (x86-64) and on the portable fallback alike.
 *
 * Matrices are dense row-major n x n doubles; only the lower triangle
 * of a factor or of the factored matrix is read.
 */

#ifndef VAESA_TENSOR_KERNELS_TRIANGULAR_HH
#define VAESA_TENSOR_KERNELS_TRIANGULAR_HH

#include <cstddef>

namespace vaesa::kernels {

/**
 * Rows [startRow, n) of the Cholesky factor of a into l. Rows
 * [0, startRow) of l must hold the factor of a's leading block; only
 * rows >= startRow of a and the lower triangle of l are read, and
 * only the lower triangle of rows >= startRow of l is written.
 * Returns false at the first pivot that is not positive and finite
 * (the rows from that one on are then unspecified).
 */
bool cholesky(const double *a, double *l, std::size_t n,
              std::size_t startRow);

/** y = L^-1 b by forward substitution; y may be b itself. */
void solveLower(const double *l, std::size_t n, const double *b,
                double *y);

/** Right-hand sides per solveLowerTile() call. */
constexpr std::size_t kSolveTile = 32;

/**
 * In place, v = L^-1 v for v an n x kSolveTile row-major tile: each
 * column is solved as solveLower() would solve it alone.
 */
void solveLowerTile(const double *l, std::size_t n, double *v);

} // namespace vaesa::kernels

#endif // VAESA_TENSOR_KERNELS_TRIANGULAR_HH
