#include "tensor/matrix.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/rng.hh"

namespace vaesa {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
{
}

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data))
{
    if (data_.size() != rows * cols)
        panic("Matrix init payload size ", data_.size(),
              " != ", rows, "x", cols);
}

double &
Matrix::operator()(std::size_t r, std::size_t c)
{
    if (r >= rows_ || c >= cols_)
        panic("Matrix index (", r, ",", c, ") out of ",
              rows_, "x", cols_);
    return data_[r * cols_ + c];
}

double
Matrix::operator()(std::size_t r, std::size_t c) const
{
    if (r >= rows_ || c >= cols_)
        panic("Matrix index (", r, ",", c, ") out of ",
              rows_, "x", cols_);
    return data_[r * cols_ + c];
}

void
Matrix::resizeBuffer(std::size_t rows, std::size_t cols)
{
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
}

void
Matrix::copyFrom(const Matrix &other)
{
    rows_ = other.rows_;
    cols_ = other.cols_;
    data_.assign(other.data_.begin(), other.data_.end());
}

std::vector<double>
Matrix::row(std::size_t r) const
{
    if (r >= rows_)
        panic("Matrix row ", r, " out of ", rows_);
    return std::vector<double>(data_.begin() + r * cols_,
                               data_.begin() + (r + 1) * cols_);
}

void
Matrix::copyRowInto(std::size_t r, std::vector<double> &out) const
{
    if (r >= rows_)
        panic("Matrix row ", r, " out of ", rows_);
    out.resize(cols_);
    std::copy(data_.begin() + r * cols_,
              data_.begin() + (r + 1) * cols_, out.begin());
}

void
Matrix::setRow(std::size_t r, const std::vector<double> &values)
{
    if (r >= rows_)
        panic("Matrix row ", r, " out of ", rows_);
    if (values.size() != cols_)
        panic("Matrix setRow length ", values.size(), " != ", cols_);
    std::copy(values.begin(), values.end(), data_.begin() + r * cols_);
}

void
Matrix::fill(double value)
{
    std::fill(data_.begin(), data_.end(), value);
}

void
Matrix::add(const Matrix &other)
{
    if (rows_ != other.rows_ || cols_ != other.cols_)
        panic("Matrix add shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
}

void
Matrix::scale(double factor)
{
    for (double &x : data_)
        x *= factor;
}

void
Matrix::randomNormal(Rng &rng, double mean, double stddev)
{
    for (double &x : data_)
        x = rng.normal(mean, stddev);
}

void
Matrix::randomUniform(Rng &rng, double lo, double hi)
{
    for (double &x : data_)
        x = rng.uniform(lo, hi);
}

bool
Matrix::operator==(const Matrix &other) const
{
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
}

} // namespace vaesa
