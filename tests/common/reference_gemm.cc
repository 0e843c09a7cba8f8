#include "reference_gemm.hh"

#include <algorithm>

namespace vaesa::reference {

void
gemm(std::size_t m, std::size_t n, std::size_t k, const double *a,
     const double *b, double *c, bool accumulate)
{
    // i-k-j order keeps the inner loop contiguous in b and c.
    for (std::size_t i = 0; i < m; ++i) {
        const double *a_row = a + i * k;
        double *c_row = c + i * n;
        if (!accumulate)
            std::fill(c_row, c_row + n, 0.0);
        for (std::size_t kk = 0; kk < k; ++kk) {
            const double aik = a_row[kk];
            const double *b_row = b + kk * n;
            for (std::size_t j = 0; j < n; ++j)
                c_row[j] += aik * b_row[j];
        }
    }
}

void
gemmTransA(std::size_t m, std::size_t n, std::size_t k,
           const double *a, const double *b, double *c,
           bool accumulate)
{
    if (!accumulate)
        std::fill(c, c + m * n, 0.0);
    for (std::size_t kk = 0; kk < k; ++kk) {
        const double *a_row = a + kk * m;
        const double *b_row = b + kk * n;
        for (std::size_t i = 0; i < m; ++i) {
            const double aki = a_row[i];
            double *c_row = c + i * n;
            for (std::size_t j = 0; j < n; ++j)
                c_row[j] += aki * b_row[j];
        }
    }
}

void
gemmTransB(std::size_t m, std::size_t n, std::size_t k,
           const double *a, const double *b, double *c,
           bool accumulate)
{
    for (std::size_t i = 0; i < m; ++i) {
        const double *a_row = a + i * k;
        double *c_row = c + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            const double *b_row = b + j * k;
            double acc = accumulate ? c_row[j] : 0.0;
            for (std::size_t kk = 0; kk < k; ++kk)
                acc += a_row[kk] * b_row[kk];
            c_row[j] = acc;
        }
    }
}

} // namespace vaesa::reference
