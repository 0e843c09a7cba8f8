/**
 * @file
 * Test parameter for suites that must hold whether their inputs go
 * through the library one item at a time or as one block.
 *
 * Naive submits every item (a batch item, a probe row) in a call of
 * its own, so batch kernels run at n = 1 and the GEMM at m = 1, on
 * its edge tiles only. Blocked submits the whole batch in one call,
 * so the same code runs its full tiles and multi-item passes. A
 * property that holds under one and not the other is a batch-size
 * dependence.
 */

#ifndef VAESA_TESTS_COMMON_BATCHING_HH
#define VAESA_TESTS_COMMON_BATCHING_HH

#include <string>

#include <gtest/gtest.h>

namespace vaesa::testing {

/** How a parameterized test submits its inputs. */
enum class Batching
{
    Naive,
    Blocked,
};

/** gtest name generator: "naive" / "blocked". */
inline std::string
batchingName(const ::testing::TestParamInfo<Batching> &info)
{
    return info.param == Batching::Naive ? "naive" : "blocked";
}

} // namespace vaesa::testing

#endif // VAESA_TESTS_COMMON_BATCHING_HH
