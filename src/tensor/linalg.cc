#include "tensor/linalg.hh"

#include <cmath>

#include "tensor/kernels/triangular.hh"
#include "util/logging.hh"

namespace vaesa {

bool
cholesky(const Matrix &a, Matrix &lower, std::size_t startRow)
{
    if (a.rows() != a.cols())
        panic("cholesky requires a square matrix");
    const std::size_t n = a.rows();
    if (startRow == 0)
        lower.resizeBuffer(n, n);
    else if (lower.rows() != n || lower.cols() != n || startRow > n)
        panic("cholesky: start row ", startRow, " needs an ", n, "x", n,
              " factor");
    return kernels::cholesky(a.data(), lower.data(), n, startRow);
}

std::vector<double>
solveLower(const Matrix &lower, const std::vector<double> &b)
{
    const std::size_t n = lower.rows();
    if (lower.cols() != n || b.size() != n)
        panic("solveLower dimension mismatch");
    std::vector<double> y(n);
    kernels::solveLower(lower.data(), n, b.data(), y.data());
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
