/** @file Unit tests for the predictor heads. */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "vaesa/predictor.hh"

namespace vaesa {
namespace {

double
sum(const Matrix &m)
{
    return std::accumulate(m.data(), m.data() + m.size(), 0.0);
}

PredictorOptions
smallOptions()
{
    PredictorOptions options;
    options.designDim = 3;
    options.layerDim = 4;
    options.hiddenDims = {16};
    return options;
}

TEST(Predictor, ForwardShapeIsScalarPerRow)
{
    Rng rng(1);
    Predictor pred(smallOptions(), rng, "test");
    Matrix z(5, 3);
    Matrix feats(5, 4);
    z.randomNormal(rng, 0.0, 1.0);
    feats.randomUniform(rng, 0.0, 1.0);
    const Matrix out = pred.forward(z, feats);
    EXPECT_EQ(out.rows(), 5u);
    EXPECT_EQ(out.cols(), 1u);
}

TEST(Predictor, BatchMismatchPanics)
{
    Rng rng(2);
    Predictor pred(smallOptions(), rng, "test");
    EXPECT_DEATH(pred.forward(Matrix(2, 3), Matrix(3, 4)),
                 "batch mismatch");
}

TEST(Predictor, WidthMismatchPanics)
{
    Rng rng(3);
    Predictor pred(smallOptions(), rng, "test");
    EXPECT_DEATH(pred.forward(Matrix(2, 5), Matrix(2, 4)),
                 "width mismatch");
}

TEST(Predictor, ParameterNamesArePrefixed)
{
    Rng rng(4);
    Predictor pred(smallOptions(), rng, "latency");
    for (nn::Parameter *p : pred.parameters())
        EXPECT_EQ(p->name.rfind("latency.", 0), 0u) << p->name;
}

TEST(Predictor, DesignGradientMatchesFiniteDifferences)
{
    Rng rng(5);
    Predictor pred(smallOptions(), rng, "test");
    Matrix z(2, 3);
    Matrix feats(2, 4);
    z.randomNormal(rng, 0.0, 1.0);
    feats.randomUniform(rng, 0.0, 1.0);

    pred.forward(z, feats);
    Matrix ones(2, 1, 1.0);
    const Matrix grad_z = pred.backward(ones);
    ASSERT_EQ(grad_z.rows(), 2u);
    ASSERT_EQ(grad_z.cols(), 3u);

    const double eps = 1e-6;
    for (std::size_t r = 0; r < 2; ++r) {
        for (std::size_t c = 0; c < 3; ++c) {
            Matrix zp = z;
            zp(r, c) += eps;
            Matrix zm = z;
            zm(r, c) -= eps;
            const double plus = sum(pred.forward(zp, feats));
            const double minus = sum(pred.forward(zm, feats));
            const double numeric = (plus - minus) / (2.0 * eps);
            EXPECT_NEAR(grad_z(r, c), numeric, 1e-5)
                << "at (" << r << "," << c << ")";
        }
    }
}

TEST(Predictor, LayerFeaturesInfluenceOutput)
{
    Rng rng(6);
    Predictor pred(smallOptions(), rng, "test");
    Matrix z(1, 3, {0.1, -0.2, 0.3});
    Matrix feats_a(1, 4, {0.1, 0.2, 0.3, 0.4});
    Matrix feats_b(1, 4, {0.9, 0.8, 0.7, 0.6});
    const double a = pred.forward(z, feats_a)(0, 0);
    const double b = pred.forward(z, feats_b)(0, 0);
    EXPECT_NE(a, b);
}

TEST(Predictor, DeterministicForSeed)
{
    Rng rng_a(7);
    Rng rng_b(7);
    Predictor a(smallOptions(), rng_a, "t");
    Predictor b(smallOptions(), rng_b, "t");
    Matrix z(1, 3, {0.5, 0.5, 0.5});
    Matrix feats(1, 4, {0.5, 0.5, 0.5, 0.5});
    EXPECT_DOUBLE_EQ(a.forward(z, feats)(0, 0),
                     b.forward(z, feats)(0, 0));
}

} // namespace
} // namespace vaesa
