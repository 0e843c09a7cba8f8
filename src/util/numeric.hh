/**
 * @file
 * Small numeric helpers shared by the scheduler and the design-space
 * code: ceiling division, power-of-two tests, log2 and clamping.
 */

#ifndef VAESA_UTIL_NUMERIC_HH
#define VAESA_UTIL_NUMERIC_HH

#include <cstdint>

namespace vaesa {

/** Ceiling division for non-negative integers. */
constexpr std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

/** True when x is a power of two (x > 0). */
constexpr bool
isPowerOfTwo(std::int64_t x)
{
    return x > 0 && (x & (x - 1)) == 0;
}

/** log2 of a double, defined for x > 0. */
double log2d(double x);

/** Clamp a double into [lo, hi]. */
double clampd(double x, double lo, double hi);

} // namespace vaesa

#endif // VAESA_UTIL_NUMERIC_HH
