/**
 * @file
 * The two instances of the GP suites that once ran once per kernel.
 * The GP has one kernel (Matérn-5/2); each suite keeps both instances
 * and their names. `Matern52` runs the suite's hyperparameters as
 * written. `Rbf` runs the RBF case ported to Matérn-5/2: every
 * lengthscale times sqrt(5/3), the Matérn lengthscale whose kernel has
 * the RBF kernel's curvature at zero distance (RBF: 1 - r^2 / (2 l^2);
 * Matérn-5/2: 1 - 5 r^2 / (6 l^2)). The longer lengthscales make
 * every kernel matrix smoother and worse conditioned, as RBF's were.
 */

#ifndef VAESA_TESTS_COMMON_KERNEL_CASES_HH
#define VAESA_TESTS_COMMON_KERNEL_CASES_HH

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "dse/gp.hh"

namespace vaesa::testing {

enum class KernelCase { Rbf, Matern52 };

/** `hyper` as the case runs it. */
inline GaussianProcess::Hyper
caseHyper(KernelCase c, GaussianProcess::Hyper hyper = {})
{
    if (c == KernelCase::Rbf)
        hyper.lengthscale *= std::sqrt(5.0 / 3.0);
    return hyper;
}

/** Both cases, for INSTANTIATE_TEST_SUITE_P. */
inline auto
kernelCases()
{
    return ::testing::Values(KernelCase::Rbf, KernelCase::Matern52);
}

/** The instance name: `Rbf` or `Matern52`. */
inline std::string
kernelCaseName(const ::testing::TestParamInfo<KernelCase> &info)
{
    return info.param == KernelCase::Rbf ? "Rbf" : "Matern52";
}

} // namespace vaesa::testing

#endif // VAESA_TESTS_COMMON_KERNEL_CASES_HH
