/**
 * @file
 * Dense row-major matrix used throughout the NN and GP code.
 *
 * Double precision everywhere: the matrices in VAESA are small (a few
 * hundred by a few hundred), so the 2x bandwidth cost of double over
 * float is irrelevant, while GP Cholesky factorizations and
 * finite-difference gradient checks benefit from the extra precision.
 */

#ifndef VAESA_TENSOR_MATRIX_HH
#define VAESA_TENSOR_MATRIX_HH

#include <cstddef>
#include <vector>

namespace vaesa {

class Rng;

/**
 * A dense, row-major, heap-backed matrix of doubles.
 *
 * Shapes are checked on every operation; mismatches are programming
 * errors and panic(). Vectors are represented as 1-by-n or n-by-1
 * matrices where convenient, or as std::vector<double> at module
 * boundaries.
 */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** Zero-initialized rows x cols matrix. */
    Matrix(std::size_t rows, std::size_t cols);

    /** rows x cols matrix filled with a constant. */
    Matrix(std::size_t rows, std::size_t cols, double fill);

    /** Build from a row-major initializer payload; size must match. */
    Matrix(std::size_t rows, std::size_t cols,
           std::vector<double> data);

    /** Number of rows. */
    std::size_t rows() const { return rows_; }

    /** Number of columns. */
    std::size_t cols() const { return cols_; }

    /** Total element count. */
    std::size_t size() const { return data_.size(); }

    /** Element access (checked in debug via panic on OOB). */
    double &operator()(std::size_t r, std::size_t c);

    /** Element access, const. */
    double operator()(std::size_t r, std::size_t c) const;

    /** Raw row-major storage. */
    double *data() { return data_.data(); }

    /** Raw row-major storage, const. */
    const double *data() const { return data_.data(); }

    /**
     * Reshape in place to rows x cols. Element values are
     * unspecified afterwards; the backing store is retained (and
     * never shrunk), so reshaping within the high-water mark is
     * allocation-free. The nn modules reshape their member scratch
     * buffers (outputs, input gradients) with it once per pass.
     */
    void resizeBuffer(std::size_t rows, std::size_t cols);

    /** Become a deep copy of other, reusing existing capacity. */
    void copyFrom(const Matrix &other);

    /** One row as a copied vector. */
    std::vector<double> row(std::size_t r) const;

    /** Copy one row into out (resized to cols(), capacity reused). */
    void copyRowInto(std::size_t r, std::vector<double> &out) const;

    /** Overwrite one row from a vector of length cols(). */
    void setRow(std::size_t r, const std::vector<double> &values);

    /** Set every element to a constant. */
    void fill(double value);

    /** this += other (same shape). */
    void add(const Matrix &other);

    /** this *= scalar. */
    void scale(double factor);

    /** Fill with i.i.d. N(mean, stddev) draws. */
    void randomNormal(Rng &rng, double mean, double stddev);

    /** Fill with i.i.d. U[lo, hi) draws. */
    void randomUniform(Rng &rng, double lo, double hi);

    /** Exact element-wise equality (for serialization round-trips). */
    bool operator==(const Matrix &other) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

} // namespace vaesa

#endif // VAESA_TENSOR_MATRIX_HH
