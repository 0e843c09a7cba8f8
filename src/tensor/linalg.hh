/**
 * @file
 * Dense linear-algebra kernels for the Gaussian-process layer: Cholesky
 * factorization of SPD matrices (with adaptive jitter) and triangular
 * solves. Loops index the row-major storage directly after one shape
 * check and keep a fixed, serial summation order, so results are
 * reproducible bit for bit.
 */

#ifndef VAESA_TENSOR_LINALG_HH
#define VAESA_TENSOR_LINALG_HH

#include <vector>

#include "tensor/matrix.hh"

namespace vaesa {

/**
 * Cholesky factor of a symmetric positive-definite matrix.
 *
 * @param a square SPD matrix.
 * @param lower output: lower-triangular L with a = L L^T.
 * @return true on success, false if a is not (numerically) SPD.
 */
bool cholesky(const Matrix &a, Matrix &lower);

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

/** Squared Euclidean distance between equal-length vectors. */
double squaredDistance(const std::vector<double> &a,
                       const std::vector<double> &b);

} // namespace vaesa

#endif // VAESA_TENSOR_LINALG_HH
