/**
 * @file
 * Finite-difference gradient checking helpers shared by the nn tests.
 */

#ifndef VAESA_TESTS_NN_GRADCHECK_HH
#define VAESA_TESTS_NN_GRADCHECK_HH

#include <algorithm>
#include <cmath>
#include <functional>

#include "nn/module.hh"
#include "tensor/matrix.hh"

namespace vaesa::nn::testing {

/** Scalar loss over a module output; sum of squares keeps it simple. */
inline double
sumOfSquares(const Matrix &m)
{
    double acc = 0.0;
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            acc += m(r, c) * m(r, c);
    return acc;
}

/** Largest absolute element (0 for an empty matrix). */
inline double
maxAbs(const Matrix &m)
{
    double best = 0.0;
    for (std::size_t i = 0; i < m.size(); ++i)
        best = std::max(best, std::fabs(m.data()[i]));
    return best;
}

/** Move entries within 0.05 of 0 away from LeakyReLU's kink. */
inline void
nudgeOffKink(Matrix &x)
{
    for (std::size_t i = 0; i < x.size(); ++i)
        if (std::fabs(x.data()[i]) < 0.05)
            x.data()[i] += 0.1;
}

/** dL/dm for the sum-of-squares loss. */
inline Matrix
sumOfSquaresGrad(const Matrix &m)
{
    Matrix g = m;
    g.scale(2.0);
    return g;
}

/**
 * Compare a module's analytic input & parameter gradients against
 * central finite differences of L(x) = sum(forward(x)^2).
 *
 * @param module module under test.
 * @param input probe batch.
 * @param tol relative tolerance.
 * @return largest relative error observed.
 */
inline double
checkModuleGradients(Module &module, const Matrix &input,
                     double eps = 1e-6)
{
    // Analytic gradients.
    module.zeroGrad();
    const Matrix out = module.forward(input);
    const Matrix grad_in = module.backward(sumOfSquaresGrad(out));

    double worst = 0.0;
    auto relerr = [](double analytic, double numeric) {
        const double denom =
            std::max({std::fabs(analytic), std::fabs(numeric), 1e-4});
        return std::fabs(analytic - numeric) / denom;
    };

    // Input gradient vs central differences.
    Matrix probe = input;
    for (std::size_t r = 0; r < probe.rows(); ++r) {
        for (std::size_t c = 0; c < probe.cols(); ++c) {
            const double saved = probe(r, c);
            probe(r, c) = saved + eps;
            const double plus = sumOfSquares(module.forward(probe));
            probe(r, c) = saved - eps;
            const double minus = sumOfSquares(module.forward(probe));
            probe(r, c) = saved;
            const double numeric = (plus - minus) / (2.0 * eps);
            worst = std::max(worst, relerr(grad_in(r, c), numeric));
        }
    }

    // Parameter gradients vs central differences.
    for (Parameter *p : module.parameters()) {
        for (std::size_t r = 0; r < p->value.rows(); ++r) {
            for (std::size_t c = 0; c < p->value.cols(); ++c) {
                const double saved = p->value(r, c);
                p->value(r, c) = saved + eps;
                const double plus =
                    sumOfSquares(module.forward(input));
                p->value(r, c) = saved - eps;
                const double minus =
                    sumOfSquares(module.forward(input));
                p->value(r, c) = saved;
                const double numeric = (plus - minus) / (2.0 * eps);
                worst = std::max(worst,
                                 relerr(p->grad(r, c), numeric));
            }
        }
    }
    return worst;
}

} // namespace vaesa::nn::testing

#endif // VAESA_TESTS_NN_GRADCHECK_HH
