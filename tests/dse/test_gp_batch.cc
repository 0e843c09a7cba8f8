/**
 * @file
 * Bit-exactness tests for GaussianProcess::predictBatch. A test-local
 * reference GP rebuilds the posterior the textbook way, one query at
 * a time: kernel vector, forward substitution with solveLower(), then
 * the mean and variance reductions in ascending training-point order.
 * The tiled batch path must reproduce it bit for bit for every
 * training-set size and range length around the tile width, in both
 * kernel cases, and from a non-zero range start.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "../common/kernel_cases.hh"
#include "dse/gp.hh"
#include "tensor/linalg.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace vaesa {
namespace {

using Prediction = GaussianProcess::Prediction;

constexpr std::size_t tile = GaussianProcess::predictTile;

/** One-query-at-a-time GP posterior, written independently of the
 *  tiled implementation. */
class ReferenceGp
{
  public:
    explicit ReferenceGp(const GaussianProcess::Hyper &hyper)
        : hyper_(hyper)
    {
    }

    void
    fit(const std::vector<std::vector<double>> &xs,
        const std::vector<double> &ys)
    {
        xs_ = xs;
        yMean_ = mean(ys);
        yStd_ = stddev(ys);
        if (!(yStd_ > 1e-12))
            yStd_ = 1.0;
        std::vector<double> y_std(ys.size());
        for (std::size_t i = 0; i < ys.size(); ++i)
            y_std[i] = (ys[i] - yMean_) / yStd_;
        const std::size_t n = xs.size();
        Matrix k(n, n);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j)
                k(i, j) = kernelValue(xs[i], xs[j]);
            k(i, i) += hyper_.noiseVar;
        }
        choleskyJittered(k, lower_);
        alpha_ = solveLowerTransposed(lower_, solveLower(lower_, y_std));
    }

    Prediction
    predict(const std::vector<double> &x) const
    {
        const std::size_t n = xs_.size();
        std::vector<double> k_star(n);
        for (std::size_t i = 0; i < n; ++i)
            k_star[i] = kernelValue(x, xs_[i]);
        double mean_std = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            mean_std += k_star[i] * alpha_[i];
        const std::vector<double> v = solveLower(lower_, k_star);
        double var_std = kernelValue(x, x);
        for (double vi : v)
            var_std -= vi * vi;
        if (!(var_std > 0.0))
            var_std = 0.0;
        return {yMean_ + yStd_ * mean_std, yStd_ * yStd_ * var_std};
    }

  private:
    double
    kernelValue(const std::vector<double> &a,
                const std::vector<double> &b) const
    {
        const double d2 = squaredDistance(a.data(), b.data(), a.size());
        const double r = std::sqrt(d2) / hyper_.lengthscale;
        const double sq5r = std::sqrt(5.0) * r;
        return (1.0 + sq5r + 5.0 * r * r / 3.0) * std::exp(-sq5r);
    }

    GaussianProcess::Hyper hyper_;
    std::vector<std::vector<double>> xs_;
    std::vector<double> alpha_;
    Matrix lower_;
    double yMean_ = 0.0;
    double yStd_ = 1.0;
};

std::vector<std::vector<double>>
randomPoints(std::size_t count, std::size_t dim, Rng &rng)
{
    std::vector<std::vector<double>> xs(count, std::vector<double>(dim));
    for (auto &x : xs)
        for (double &v : x)
            v = rng.uniform(-1.0, 1.0);
    return xs;
}

void
expectSameBits(const Prediction &got, const Prediction &want,
               const std::string &where)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mean),
              std::bit_cast<std::uint64_t>(want.mean))
        << where << ": mean " << got.mean << " vs " << want.mean;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.var),
              std::bit_cast<std::uint64_t>(want.var))
        << where << ": var " << got.var << " vs " << want.var;
}

class PredictBatchSweep
    : public ::testing::TestWithParam<testing::KernelCase>
{
};

TEST_P(PredictBatchSweep, MatchesScalarReferenceBitForBit)
{
    constexpr std::size_t dim = 4;
    constexpr std::size_t start = 3; // ranges never begin at 0
    const GaussianProcess::Hyper hyper =
        testing::caseHyper(GetParam(), {0.4, 1e-4});
    Rng rng(17);
    const std::vector<std::vector<double>> queries =
        randomPoints(start + 640, dim, rng);

    for (std::size_t n : {std::size_t{1}, std::size_t{2}, tile - 1, tile,
                          tile + 1, std::size_t{192}}) {
        const auto xs = randomPoints(n, dim, rng);
        std::vector<double> ys(n);
        for (std::size_t i = 0; i < n; ++i)
            ys[i] = std::sin(3.0 * xs[i][0]) + xs[i][1] * xs[i][2];

        GaussianProcess gp(hyper);
        gp.fit(xs, ys);
        ReferenceGp ref(hyper);
        ref.fit(xs, ys);

        for (std::size_t len : {std::size_t{0}, std::size_t{1}, tile - 1,
                                tile, tile + 1, std::size_t{640}}) {
            std::vector<Prediction> out(len, Prediction{-1.0, -1.0});
            gp.predictBatch(std::span(queries).subspan(start, len), out);
            for (std::size_t j = 0; j < len; ++j)
                expectSameBits(out[j], ref.predict(queries[start + j]),
                               "n=" + std::to_string(n) +
                                   " len=" + std::to_string(len) +
                                   " j=" + std::to_string(j));
        }
    }
}

TEST_P(PredictBatchSweep, NearDuplicatesKeepVarianceNonNegative)
{
    // Clusters of nearly identical training points with almost no
    // noise: the variance subtraction cancels catastrophically at
    // and around them, and the clamp must still hold in every lane
    // of a tile, bit-identical to the one-query reference.
    const GaussianProcess::Hyper hyper =
        testing::caseHyper(GetParam(), {0.5, 1e-10});
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int c = 0; c < 12; ++c) {
        const std::vector<double> base{0.1 * c - 0.6, 0.25 - 0.05 * c};
        for (int r = 0; r < 3; ++r) {
            xs.push_back({base[0] + 1e-13 * r, base[1] - 1e-13 * r});
            ys.push_back(2.0 + 0.1 * c);
        }
    }
    GaussianProcess gp(hyper);
    gp.fit(xs, ys);
    ReferenceGp ref(hyper);
    ref.fit(xs, ys);

    std::vector<std::vector<double>> queries = xs;
    Rng rng(5);
    for (const auto &x : randomPoints(tile, 2, rng))
        queries.push_back(x);
    std::vector<Prediction> out(queries.size());
    gp.predictBatch(queries, out);
    for (std::size_t j = 0; j < queries.size(); ++j) {
        ASSERT_TRUE(std::isfinite(out[j].mean)) << j;
        ASSERT_TRUE(std::isfinite(out[j].var)) << j;
        EXPECT_GE(out[j].var, 0.0) << j;
        expectSameBits(out[j], ref.predict(queries[j]),
                       "query " + std::to_string(j));
    }
}

INSTANTIATE_TEST_SUITE_P(Kernels, PredictBatchSweep, testing::kernelCases(),
                         testing::kernelCaseName);

TEST(PredictBatch, RejectsUseBeforeFitAndShapeMismatch)
{
    const std::vector<std::vector<double>> queries{{0.0}, {1.0}};
    std::vector<Prediction> out(2);
    GaussianProcess gp;
    EXPECT_DEATH(gp.predictBatch(queries, out), "before fit");
    gp.fit({{0.5}}, {1.0});
    std::vector<Prediction> short_out(1);
    EXPECT_DEATH(gp.predictBatch(queries, short_out), "outputs");
}

} // namespace
} // namespace vaesa
