/** @file Unit tests for Gaussian-process regression. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "../common/kernel_cases.hh"
#include "dse/bo.hh"
#include "dse/gp.hh"
#include "util/rng.hh"

namespace vaesa {
namespace {

/** The posterior at one point: a predictBatch of one. */
GaussianProcess::Prediction
predictOne(const GaussianProcess &gp, const std::vector<double> &x)
{
    GaussianProcess::Prediction pred{};
    gp.predictBatch({&x, 1}, {&pred, 1});
    return pred;
}

TEST(NormalDistribution, PdfAndCdfKnownValues)
{
    EXPECT_NEAR(normalPdf(0.0), 0.3989422804, 1e-9);
    EXPECT_NEAR(normalCdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(normalCdf(1.959963985), 0.975, 1e-6);
    EXPECT_NEAR(normalCdf(-1.959963985), 0.025, 1e-6);
}

TEST(GaussianProcess, InterpolatesTrainingPointsWithLowNoise)
{
    GaussianProcess gp({0.5, 1e-8});
    const std::vector<std::vector<double>> xs{
        {0.0}, {0.5}, {1.0}};
    const std::vector<double> ys{1.0, -1.0, 2.0};
    gp.fit(xs, ys);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const auto pred = predictOne(gp, xs[i]);
        EXPECT_NEAR(pred.mean, ys[i], 1e-3);
        EXPECT_LT(pred.var, 1e-4);
    }
}

TEST(GaussianProcess, UncertaintyGrowsAwayFromData)
{
    GaussianProcess gp({0.3, 1e-6});
    gp.fit({{0.0}, {0.1}, {0.2}}, {0.0, 0.1, 0.2});
    const double var_near = predictOne(gp, {0.1}).var;
    const double var_far = predictOne(gp, {3.0}).var;
    EXPECT_GT(var_far, var_near * 100.0);
}

TEST(GaussianProcess, PredictionRevertsToMeanFarAway)
{
    GaussianProcess gp({0.2, 1e-6});
    gp.fit({{0.0}, {1.0}}, {5.0, 9.0});
    // Far from data the posterior mean reverts to the y mean (7).
    EXPECT_NEAR(predictOne(gp, {100.0}).mean, 7.0, 1e-6);
}

TEST(GaussianProcess, Matern52SmoothFitOnSine)
{
    GaussianProcess gp({0.4, 1e-6});
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i <= 20; ++i) {
        const double x = i / 20.0 * 2.0 * M_PI;
        xs.push_back({x});
        ys.push_back(std::sin(x));
    }
    gp.fit(xs, ys);
    for (double x : {0.7, 2.3, 4.1, 5.9}) {
        EXPECT_NEAR(predictOne(gp, {x}).mean, std::sin(x), 0.05);
    }
}

TEST(GaussianProcess, VarianceIsNonNegative)
{
    Rng rng(1);
    GaussianProcess gp;
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i < 30; ++i) {
        xs.push_back({rng.uniform(), rng.uniform()});
        ys.push_back(rng.normal());
    }
    gp.fit(xs, ys);
    for (int i = 0; i < 50; ++i) {
        const auto pred = predictOne(gp, {rng.uniform(), rng.uniform()});
        EXPECT_GE(pred.var, 0.0);
    }
}

TEST(GaussianProcess, HyperSearchImprovesLikelihood)
{
    Rng rng(2);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i < 40; ++i) {
        const double x = rng.uniform(0.0, 1.0);
        xs.push_back({x});
        ys.push_back(std::sin(8.0 * x));
    }
    GaussianProcess fixed({1.6, 1e-2});
    fixed.fit(xs, ys);
    const double lik_fixed = fixed.logMarginalLikelihood();

    GaussianProcess tuned;
    tuned.fitWithHyperSearch(xs, ys);
    EXPECT_GE(tuned.logMarginalLikelihood(), lik_fixed);
}

TEST(GaussianProcess, HandlesConstantLabels)
{
    GaussianProcess gp;
    gp.fit({{0.0}, {1.0}, {2.0}}, {3.0, 3.0, 3.0});
    EXPECT_NEAR(predictOne(gp, {0.5}).mean, 3.0, 1e-6);
}

TEST(GaussianProcess, DuplicateObservationsKeepSigmaFinite)
{
    // Regression: two identical observations drive the predictive
    // variance at the duplicated point negative (or, with a
    // degenerate solve, NaN) through catastrophic cancellation; the
    // old (var < 0) clamp passed NaN straight through, so
    // sqrt(var) -> NaN sigma poisoned every EI comparison and the
    // acquisition loop went blind. The clamp must be NaN-safe.
    GaussianProcess gp({0.5, 1e-10});
    gp.fit({{0.25, 0.75}, {0.25, 0.75}}, {2.0, 2.0});
    const auto pred = predictOne(gp, {0.25, 0.75});
    ASSERT_TRUE(std::isfinite(pred.mean));
    ASSERT_TRUE(std::isfinite(pred.var));
    EXPECT_GE(pred.var, 0.0);
    const double ei = expectedImprovement(pred, 1.0);
    EXPECT_TRUE(std::isfinite(ei));
    EXPECT_GE(ei, 0.0);
}

TEST(GaussianProcess, ExpectedImprovementIsNanSafe)
{
    // std::max(NaN, 0.0) returns NaN; the EI clamp must not use it.
    GaussianProcess::Prediction pred;
    pred.mean = 2.0;
    pred.var = std::numeric_limits<double>::quiet_NaN();
    const double ei = expectedImprovement(pred, 5.0);
    EXPECT_TRUE(std::isfinite(ei));
    EXPECT_DOUBLE_EQ(ei, 3.0); // sigma clamps to 0: best - mean
}

TEST(GaussianProcess, SingleObservationFitIsFinite)
{
    // stddev() of one label is NaN; fit() must fall back to unit
    // scale instead of standardizing by NaN.
    GaussianProcess gp;
    gp.fit({{0.5}}, {4.0});
    const auto pred = predictOne(gp, {0.5});
    EXPECT_TRUE(std::isfinite(pred.mean));
    EXPECT_TRUE(std::isfinite(pred.var));
    EXPECT_NEAR(pred.mean, 4.0, 1e-3);
}

TEST(GaussianProcess, RejectsBadInputs)
{
    GaussianProcess gp;
    EXPECT_DEATH(gp.fit({}, {}), "bad observation");
    EXPECT_DEATH(gp.fit({{0.0}}, {1.0, 2.0}), "bad observation");
    EXPECT_DEATH(predictOne(gp, {0.0}), "before fit");
}

// ---------------------------------------------------------------
// Extended (incremental) fits: every fit must be bit-identical to a
// fresh GaussianProcess fitted to the same data, whatever the
// previous fit on the same object was.

using Points = std::vector<std::vector<double>>;

Points
randomInputs(std::size_t count, Rng &rng)
{
    Points xs(count);
    for (auto &x : xs)
        x = {rng.uniform(), rng.uniform(), rng.uniform()};
    return xs;
}

/** Labels that shift with every call, as BayesOpt's do. */
std::vector<double>
labelsFor(const Points &xs, double shift)
{
    std::vector<double> ys;
    for (const auto &x : xs)
        ys.push_back(std::sin(4.0 * x[0]) + x[1] * x[2] + shift);
    return ys;
}

Points
firstN(const Points &xs, std::size_t n)
{
    return Points(xs.begin(), xs.begin() + n);
}

std::uint64_t
bitsOf(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** Predictions, bounds and refined bounds at `queries` and the
 *  likelihood, bit for bit. The bounds read the factor's row norms,
 *  which an extended fit keeps for the rows it kept. */
void
expectSameFit(const GaussianProcess &got, const GaussianProcess &want,
              const Points &queries, const std::string &where)
{
    ASSERT_EQ(got.sampleCount(), want.sampleCount()) << where;
    EXPECT_EQ(bitsOf(got.logMarginalLikelihood()),
              bitsOf(want.logMarginalLikelihood()))
        << where << ": log likelihood " << got.logMarginalLikelihood()
        << " vs " << want.logMarginalLikelihood();
    std::vector<GaussianProcess::Prediction> a(queries.size());
    std::vector<GaussianProcess::Prediction> b(queries.size());
    got.predictBatch(queries, a);
    want.predictBatch(queries, b);
    for (std::size_t j = 0; j < queries.size(); ++j) {
        EXPECT_EQ(bitsOf(a[j].mean), bitsOf(b[j].mean))
            << where << ": mean at query " << j;
        EXPECT_EQ(bitsOf(a[j].var), bitsOf(b[j].var))
            << where << ": var at query " << j;
    }
    std::vector<GaussianProcess::Bound> bound_a(queries.size());
    std::vector<GaussianProcess::Bound> bound_b(queries.size());
    for (const bool refined : {false, true}) {
        const std::string what = refined ? "refined " : "";
        if (refined) {
            got.refineBatch(queries, bound_a);
            want.refineBatch(queries, bound_b);
        } else {
            got.boundBatch(queries, bound_a);
            want.boundBatch(queries, bound_b);
        }
        for (std::size_t j = 0; j < queries.size(); ++j) {
            EXPECT_EQ(bitsOf(bound_a[j].meanLower),
                      bitsOf(bound_b[j].meanLower))
                << where << ": " << what << "mean bound at query " << j;
            EXPECT_EQ(bitsOf(bound_a[j].varUpper),
                      bitsOf(bound_b[j].varUpper))
                << where << ": " << what << "var bound at query " << j;
        }
    }
}

/** Fit `gp` and a fresh GP with gp's hyperparameters to the same
 *  data, and require the two to agree bit for bit. */
void
fitAndCompare(GaussianProcess &gp, const Points &xs,
              const std::vector<double> &ys, const Points &queries,
              const std::string &where)
{
    gp.fit(xs, ys);
    GaussianProcess fresh(gp.hyper());
    fresh.fit(xs, ys);
    expectSameFit(gp, fresh, queries, where);
}

class IncrementalFit
    : public ::testing::TestWithParam<testing::KernelCase>
{
  protected:
    GaussianProcess::Hyper
    hyper(const GaussianProcess::Hyper &h = {}) const
    {
        return testing::caseHyper(GetParam(), h);
    }

    Rng rng{31};
    Points pool = randomInputs(40, rng);
    Points queries = randomInputs(70, rng); // two tiles + a tail
};

TEST_P(IncrementalFit, AppendsMatchFreshFit)
{
    GaussianProcess gp(hyper({0.3, 1e-4}));
    // One point at a time across the 4-row block edges, then several.
    std::size_t step = 0;
    for (const std::size_t n : {1, 2, 3, 4, 5, 8, 9, 10, 17, 29, 40}) {
        const Points xs = firstN(pool, n);
        fitAndCompare(gp, xs, labelsFor(xs, 0.1 * step++),
                      queries, "n=" + std::to_string(n));
    }
}

TEST_P(IncrementalFit, SetHyperBetweenFitsRefactors)
{
    // Each change follows an unjittered fit, so reusing the old rows
    // would be possible (and wrong) were the hyperparameters not
    // compared: a larger noise keeps the stale factor extensible.
    GaussianProcess gp(hyper({0.3, 1e-4}));
    const auto step = [&](std::size_t n, const std::string &where) {
        const Points xs = firstN(pool, n);
        fitAndCompare(gp, xs, labelsFor(xs, 0.0), queries,
                      where);
    };
    step(20, "base");
    gp.setHyper(hyper({0.3, 1e-2}));
    step(21, "new noise");
    gp.setHyper(hyper({0.31, 1e-2}));
    step(22, "new lengthscale");
    gp.setHyper(hyper({0.31, 1e-2})); // same bits: the factor may be kept
    step(23, "same hyper");
}

TEST_P(IncrementalFit, ReorderedAndSubsetInputsMatchFreshFit)
{
    GaussianProcess gp(hyper({0.4, 1e-4}));
    const Points base = firstN(pool, 30);
    fitAndCompare(gp, base, labelsFor(base, 0.0), queries,
                  "base");

    Points reversed(base.rbegin(), base.rend());
    fitAndCompare(gp, reversed, labelsFor(reversed, 0.0),
                  queries, "reversed");

    Points swapped = base;
    std::swap(swapped[12], swapped[13]);
    fitAndCompare(gp, base, labelsFor(base, 0.0), queries,
                  "back to base");
    fitAndCompare(gp, swapped, labelsFor(swapped, 0.0),
                  queries, "two swapped");

    Points dropped = base;
    dropped.erase(dropped.begin() + 7);
    fitAndCompare(gp, dropped, labelsFor(dropped, 0.0),
                  queries, "one dropped");

    const Points head = firstN(base, 11);
    fitAndCompare(gp, head, labelsFor(head, 0.0), queries,
                  "shorter prefix");

    // A changed coordinate in the middle of the prefix.
    Points nudged = base;
    nudged[5][1] = std::nextafter(nudged[5][1], 2.0);
    fitAndCompare(gp, nudged, labelsFor(nudged, 0.0), queries,
                  "nudged point");
}

TEST_P(IncrementalFit, JitteredFactorIsNeverExtended)
{
    // With noiseVar = 0 a duplicate of the first point makes its row
    // of K equal to row 0: the appended row's diagonal is exactly 0,
    // so the extension fails and the fit falls back to a jittered
    // full factorization. The next append must not build on that
    // jittered factor.
    GaussianProcess gp(hyper({0.3, 0.0}));
    Points xs = firstN(pool, 9);
    fitAndCompare(gp, xs, labelsFor(xs, 0.0), queries, "clean");
    xs.push_back(xs.front());
    fitAndCompare(gp, xs, labelsFor(xs, 0.0), queries,
                  "duplicate appended");
    xs.push_back(pool[20]);
    fitAndCompare(gp, xs, labelsFor(xs, 0.0), queries,
                  "append after jitter");
    xs.push_back(pool[21]);
    fitAndCompare(gp, xs, labelsFor(xs, 0.0), queries,
                  "second append after jitter");
}

TEST_P(IncrementalFit, HyperSearchMatchesFreshFitWithWinner)
{
    for (const std::size_t n : {1, 6, 25, 40}) {
        const Points xs = firstN(pool, n);
        const std::vector<double> ys = labelsFor(xs, 0.0);
        GaussianProcess gp(hyper());
        gp.fitWithHyperSearch(xs, ys);
        GaussianProcess fresh(gp.hyper());
        fresh.fit(xs, ys);
        expectSameFit(gp, fresh, queries, "n=" + std::to_string(n));
        if (n < pool.size()) {
            // The kept winner's factor is extended by the next fit.
            const Points more = firstN(pool, n + 1);
            fitAndCompare(gp, more, labelsFor(more, 0.5),
                          queries, "append after search");
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Kernels, IncrementalFit, testing::kernelCases(),
                         testing::kernelCaseName);

class KernelSweep : public ::testing::TestWithParam<testing::KernelCase>
{
};

TEST_P(KernelSweep, KernelIsUnitAtZeroDistance)
{
    GaussianProcess gp(testing::caseHyper(GetParam(), {0.3, 1e-6}));
    gp.fit({{0.25, 0.75}}, {1.0});
    // Posterior variance at the training point is ~noise only.
    EXPECT_LT(predictOne(gp, {0.25, 0.75}).var, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Kernels, KernelSweep, testing::kernelCases());

} // namespace
} // namespace vaesa
