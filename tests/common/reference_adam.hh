/**
 * @file
 * Reference Adam update: the plain scalar loop that
 * kernels::adamUpdate (src/tensor/kernels/kernels.hh) must match bit
 * for bit. Header-only, so each test compiles it at the project's
 * baseline flags (scalar, no FMA contraction, errno-setting sqrt);
 * tests/tensor/test_kernels.cc checks the kernel against it and
 * tests/nn/test_optim.cc checks Adam::step.
 */

#ifndef VAESA_TESTS_COMMON_REFERENCE_ADAM_HH
#define VAESA_TESTS_COMMON_REFERENCE_ADAM_HH

#include <cmath>
#include <cstddef>

namespace vaesa::reference {

/** One Adam update of n parameters in place; bc1 and bc2 are the
 *  bias corrections 1 - beta1^t and 1 - beta2^t of step t. */
inline void
adamUpdate(std::size_t n, const double *g, double *m, double *v,
           double *w, double lr, double beta1, double beta2,
           double eps, double bc1, double bc2)
{
    for (std::size_t k = 0; k < n; ++k) {
        m[k] = beta1 * m[k] + (1.0 - beta1) * g[k];
        v[k] = beta2 * v[k] + (1.0 - beta2) * g[k] * g[k];
        const double m_hat = m[k] / bc1;
        const double v_hat = v[k] / bc2;
        w[k] -= lr * m_hat / (std::sqrt(v_hat) + eps);
    }
}

} // namespace vaesa::reference

#endif // VAESA_TESTS_COMMON_REFERENCE_ADAM_HH
