#include "tensor/linalg.hh"

#include <cmath>

#include "util/logging.hh"

namespace vaesa {

bool
cholesky(const Matrix &a, Matrix &lower)
{
    if (a.rows() != a.cols())
        panic("cholesky requires a square matrix");
    const std::size_t n = a.rows();
    lower = Matrix(n, n);
    const double *src = a.data();
    double *out = lower.data();
    for (std::size_t i = 0; i < n; ++i) {
        const double *ai = src + i * n;
        double *li = out + i * n;
        for (std::size_t j = 0; j <= i; ++j) {
            const double *lj = out + j * n;
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
squaredDistance(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        panic("squaredDistance dimension mismatch");
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        acc += d * d;
    }
    return acc;
}

} // namespace vaesa
