/** @file Unit tests for the numeric helpers. */

#include <gtest/gtest.h>

#include "util/numeric.hh"

namespace vaesa {
namespace {

TEST(Numeric, CeilDiv)
{
    EXPECT_EQ(ceilDiv(10, 3), 4);
    EXPECT_EQ(ceilDiv(9, 3), 3);
    EXPECT_EQ(ceilDiv(1, 5), 1);
    EXPECT_EQ(ceilDiv(0, 5), 0);
}

TEST(Numeric, IsPowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(-4));
    EXPECT_FALSE(isPowerOfTwo(48));
}

TEST(Numeric, Log2d)
{
    EXPECT_DOUBLE_EQ(log2d(8.0), 3.0);
    EXPECT_DOUBLE_EQ(log2d(1.0), 0.0);
    EXPECT_DEATH(log2d(0.0), "x > 0");
}

TEST(Numeric, Clampd)
{
    EXPECT_DOUBLE_EQ(clampd(5.0, 0.0, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(clampd(-5.0, 0.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(clampd(0.5, 0.0, 1.0), 0.5);
}

} // namespace
} // namespace vaesa
