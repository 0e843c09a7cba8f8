/**
 * @file
 * Lint fixture, never compiled: deliberately parallelizes a loop
 * with OpenMP so the lint.raw_omp_fixture ctest can prove
 * vaesa_check flags '#pragma omp' everywhere outside
 * src/tensor/kernels/ — all parallelism must flow through
 * vaesa::ThreadPool. Mentions in this comment must NOT be reported.
 */

namespace vaesa_lint_fixture {

inline double
parallelSum(const double *p, int n)
{
    double total = 0.0;
#pragma omp parallel for reduction(+ : total)
    for (int i = 0; i < n; ++i)
        total += p[i];
    return total;
}

} // namespace vaesa_lint_fixture
