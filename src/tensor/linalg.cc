#include "tensor/linalg.hh"

#include <cmath>

#include "util/logging.hh"

namespace vaesa {

namespace {

/**
 * Rows [i0, i0 + R) of the Cholesky factor. Columns left of the
 * block read only finished rows, so the R rows' `acc -= l * lj`
 * chains run side by side over the shared row lj; each element still
 * subtracts in ascending k. The triangle inside the block depends on
 * its own rows and is finished row by row, as in the one-row loop.
 */
template <std::size_t R>
bool
choleskyRows(const double *a, double *l, std::size_t n, std::size_t i0)
{
    double *lr[R];
    for (std::size_t r = 0; r < R; ++r)
        lr[r] = l + (i0 + r) * n;
    for (std::size_t j = 0; j < i0; ++j) {
        const double *lj = l + j * n;
        // Fully unrolled, the R accumulators live in registers.
        double acc[R];
#pragma GCC unroll 4
        for (std::size_t r = 0; r < R; ++r)
            acc[r] = a[(i0 + r) * n + j];
        for (std::size_t k = 0; k < j; ++k) {
            const double ljk = lj[k];
#pragma GCC unroll 4
            for (std::size_t r = 0; r < R; ++r)
                acc[r] -= lr[r][k] * ljk;
        }
#pragma GCC unroll 4
        for (std::size_t r = 0; r < R; ++r)
            lr[r][j] = acc[r] / lj[j];
    }
    for (std::size_t i = i0; i < i0 + R; ++i) {
        const double *ai = a + i * n;
        double *li = l + i * n;
        for (std::size_t j = i0; j <= i; ++j) {
            const double *lj = l + j * n;
            double acc = ai[j];
            for (std::size_t k = 0; k < j; ++k)
                acc -= li[k] * lj[k];
            if (i == j) {
                if (acc <= 0.0 || !std::isfinite(acc))
                    return false;
                li[i] = std::sqrt(acc);
            } else {
                li[j] = acc / lj[j];
            }
        }
    }
    return true;
}

} // namespace

bool
cholesky(const Matrix &a, Matrix &lower, std::size_t startRow)
{
    if (a.rows() != a.cols())
        panic("cholesky requires a square matrix");
    const std::size_t n = a.rows();
    if (startRow == 0)
        lower = Matrix(n, n);
    else if (lower.rows() != n || lower.cols() != n || startRow > n)
        panic("cholesky: start row ", startRow, " needs an ", n, "x", n,
              " factor");
    const double *src = a.data();
    double *out = lower.data();
    std::size_t i = startRow;
    for (; i + 4 <= n; i += 4)
        if (!choleskyRows<4>(src, out, n, i))
            return false;
    for (; i < n; ++i)
        if (!choleskyRows<1>(src, out, n, i))
            return false;
    return true;
}

std::vector<double>
solveLower(const Matrix &lower, const std::vector<double> &b)
{
    const std::size_t n = lower.rows();
    if (lower.cols() != n || b.size() != n)
        panic("solveLower dimension mismatch");
    const double *l = lower.data();
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double *li = l + i * n;
        double acc = b[i];
        for (std::size_t k = 0; k < i; ++k)
            acc -= li[k] * y[k];
        y[i] = acc / li[i];
    }
    return y;
}

std::vector<double>
solveLowerTransposed(const Matrix &lower, const std::vector<double> &y)
{
    const std::size_t n = lower.rows();
    if (lower.cols() != n || y.size() != n)
        panic("solveLowerTransposed dimension mismatch");
    const double *l = lower.data();
    std::vector<double> x(n);
    for (std::size_t ii = n; ii > 0; --ii) {
        const std::size_t i = ii - 1;
        double acc = y[i];
        for (std::size_t k = i + 1; k < n; ++k)
            acc -= l[k * n + i] * x[k];
        x[i] = acc / l[i * n + i];
    }
    return x;
}

double
choleskyJittered(const Matrix &a, Matrix &lower)
{
    const std::size_t n = a.rows();
    double diag_mean = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        diag_mean += a(i, i);
    diag_mean = n ? diag_mean / static_cast<double>(n) : 1.0;
    if (diag_mean <= 0.0)
        diag_mean = 1.0;

    double jitter = 0.0;
    for (int attempt = 0; attempt < 12; ++attempt) {
        Matrix work = a;
        if (jitter > 0.0)
            for (std::size_t i = 0; i < n; ++i)
                work(i, i) += jitter;
        if (cholesky(work, lower))
            return jitter;
        jitter = (jitter == 0.0) ? 1e-10 * diag_mean : jitter * 10.0;
    }
    panic("choleskyJittered: matrix not SPD even with jitter ", jitter);
}

double
squaredDistance(const double *a, const double *b, std::size_t n)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double d = a[i] - b[i];
        acc += d * d;
    }
    return acc;
}

} // namespace vaesa
