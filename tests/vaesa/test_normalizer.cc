/** @file Unit tests for the min-max normalizer. */

#include <gtest/gtest.h>

#include "util/rng.hh"
#include "vaesa/normalizer.hh"

namespace vaesa {
namespace {

TEST(Normalizer, FitScalesIntoUnitInterval)
{
    Matrix data(3, 2, {0.0, 10.0, 5.0, 20.0, 10.0, 30.0});
    Normalizer norm;
    norm.fit(data);
    const Matrix scaled = norm.transform(data);
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t c = 0; c < 2; ++c) {
            EXPECT_GE(scaled(r, c), 0.0);
            EXPECT_LT(scaled(r, c), 1.0);
        }
    }
    EXPECT_DOUBLE_EQ(scaled(0, 0), 0.0);
    EXPECT_NEAR(scaled(2, 0), 1.0, 1e-6);
}

TEST(Normalizer, RoundTripsRows)
{
    Matrix data(4, 3);
    Rng rng(1);
    data.randomUniform(rng, -100.0, 100.0);
    Normalizer norm;
    norm.fit(data);
    for (std::size_t r = 0; r < 4; ++r) {
        const auto row = data.row(r);
        const auto back = norm.inverse(norm.transform(row));
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_NEAR(back[c], row[c], 1e-9);
    }
}

TEST(Normalizer, RoundTripsMatrices)
{
    Matrix data(5, 2);
    Rng rng(2);
    data.randomNormal(rng, 3.0, 10.0);
    Normalizer norm;
    norm.fit(data);
    const Matrix scaled = norm.transform(data);
    for (std::size_t r = 0; r < 5; ++r) {
        const auto back = norm.inverse(scaled.row(r));
        for (std::size_t c = 0; c < 2; ++c)
            EXPECT_NEAR(back[c], data(r, c), 1e-9);
    }
}

TEST(Normalizer, HandlesConstantColumn)
{
    Matrix data(3, 1, {7.0, 7.0, 7.0});
    Normalizer norm;
    norm.fit(data);
    const Matrix scaled = norm.transform(data);
    for (std::size_t r = 0; r < 3; ++r) {
        EXPECT_GE(scaled(r, 0), 0.0);
        EXPECT_LT(scaled(r, 0), 1.0);
    }
    EXPECT_NEAR(norm.inverse(scaled.row(0))[0], 7.0, 1e-9);
}

TEST(Normalizer, ExplicitBoundsMatchDesignSpaceUse)
{
    Normalizer norm;
    norm.setBounds({0.0, 2.0}, {10.0, 4.0});
    const auto lo = norm.inverse(std::vector<double>{0.0, 0.0});
    const auto hi = norm.inverse(std::vector<double>{1.0, 1.0});
    EXPECT_DOUBLE_EQ(lo[0], 0.0);
    EXPECT_NEAR(hi[1], 4.0, 1e-6);
    const auto scaled = norm.transform(std::vector<double>{5.0, 3.0});
    EXPECT_NEAR(scaled[0], 0.5, 1e-6);
    EXPECT_NEAR(scaled[1], 0.5, 1e-6);
}

TEST(Normalizer, OutOfRangeValuesExtrapolate)
{
    Normalizer norm;
    norm.setBounds({0.0}, {1.0});
    EXPECT_GT(norm.transform({2.0})[0], 1.0);
    EXPECT_LT(norm.transform({-1.0})[0], 0.0);
    EXPECT_NEAR(norm.inverse(norm.transform({2.0}))[0], 2.0, 1e-9);
}

TEST(Normalizer, WidthMismatchPanics)
{
    Normalizer norm;
    norm.setBounds({0.0, 0.0}, {1.0, 1.0});
    EXPECT_DEATH(norm.transform({1.0}), "width");
    EXPECT_DEATH(norm.inverse(std::vector<double>{1.0, 2.0, 3.0}), "width");
}

TEST(Normalizer, BadBoundsPanic)
{
    Normalizer norm;
    EXPECT_DEATH(norm.setBounds({1.0}, {0.0}), "hi < lo");
    EXPECT_DEATH(norm.setBounds({}, {}), "bad bound");
}

TEST(Normalizer, FitOnEmptyPanics)
{
    Normalizer norm;
    EXPECT_DEATH(norm.fit(Matrix()), "empty");
}

} // namespace
} // namespace vaesa
