/**
 * @file
 * Dense linear-algebra kernels for the Gaussian-process layer: Cholesky
 * factorization of SPD matrices (with adaptive jitter) and triangular
 * solves. After one shape check the factorization and the forward
 * substitution run in the vector kernels of
 * tensor/kernels/triangular.hh; every element keeps a fixed,
 * ascending summation order, so results are reproducible bit for bit.
 */

#ifndef VAESA_TENSOR_LINALG_HH
#define VAESA_TENSOR_LINALG_HH

#include <vector>

#include "tensor/matrix.hh"

namespace vaesa {

/**
 * Cholesky factor of a symmetric positive-definite matrix. Row i of
 * L reads only row i of a's lower triangle and rows < i of L, so a
 * factor can be extended: with startRow = p, rows [0, p) of lower
 * are kept as given and only rows [p, n) are computed (and only those
 * rows of a are read). Every element is computed with the same
 * operation sequence whatever startRow is, so an extended factor is
 * bit-identical to a full one.
 *
 * @param a square SPD matrix; only the lower triangle is read.
 * @param lower output: L with a = L L^T in its lower triangle.
 *        With startRow = 0 it is reshaped to n x n in place, its
 *        storage reused; nothing above the diagonal is written, so
 *        that part is zero only in a matrix that held zeros there
 *        (a fresh one). With startRow > 0 it must already be n x n
 *        and hold the factor of a's leading p x p block in its first
 *        p rows.
 * @param startRow first row to compute.
 * @return true on success, false if a is not (numerically) SPD.
 */
bool cholesky(const Matrix &a, Matrix &lower, std::size_t startRow = 0);

/** Solve L y = b for lower-triangular L (forward substitution). */
std::vector<double> solveLower(const Matrix &lower,
                               const std::vector<double> &b);

/** Solve L^T x = y for lower-triangular L (back substitution). */
std::vector<double> solveLowerTransposed(const Matrix &lower,
                                         const std::vector<double> &y);

/**
 * Cholesky with adaptive jitter; panics if even large jitter fails.
 * Returns the jitter used.
 */
double choleskyJittered(const Matrix &a, Matrix &lower);

/** Squared Euclidean distance between two length-n arrays, summed
 *  in ascending index order. */
double squaredDistance(const double *a, const double *b, std::size_t n);

} // namespace vaesa

#endif // VAESA_TENSOR_LINALG_HH
