/** @file Unit tests for environment-variable knobs. */

#include <gtest/gtest.h>

#include <cstdlib>

#include "util/env.hh"

namespace vaesa {
namespace {

TEST(Env, IntFallsBackWhenUnset)
{
    unsetenv("VAESA_TEST_INT");
    EXPECT_EQ(envInt("VAESA_TEST_INT", 42), 42);
}

TEST(Env, IntParsesValue)
{
    setenv("VAESA_TEST_INT", "-17", 1);
    EXPECT_EQ(envInt("VAESA_TEST_INT", 42), -17);
    unsetenv("VAESA_TEST_INT");
}

TEST(Env, IntEmptyStringFallsBack)
{
    setenv("VAESA_TEST_INT", "", 1);
    EXPECT_EQ(envInt("VAESA_TEST_INT", 42), 42);
    unsetenv("VAESA_TEST_INT");
}

TEST(Env, IntRejectsGarbage)
{
    setenv("VAESA_TEST_INT", "12abc", 1);
    EXPECT_DEATH(envInt("VAESA_TEST_INT", 0), "not an integer");
    unsetenv("VAESA_TEST_INT");
}

TEST(Env, DoubleParsesValue)
{
    setenv("VAESA_TEST_DBL", "2.5e-3", 1);
    EXPECT_DOUBLE_EQ(envDouble("VAESA_TEST_DBL", 1.0), 2.5e-3);
    unsetenv("VAESA_TEST_DBL");
}

TEST(Env, DoubleFallsBackWhenUnset)
{
    unsetenv("VAESA_TEST_DBL");
    EXPECT_DOUBLE_EQ(envDouble("VAESA_TEST_DBL", 0.25), 0.25);
}

TEST(Env, DoubleRejectsGarbage)
{
    setenv("VAESA_TEST_DBL", "x", 1);
    EXPECT_DEATH(envDouble("VAESA_TEST_DBL", 0.0), "not a number");
    unsetenv("VAESA_TEST_DBL");
}

} // namespace
} // namespace vaesa
