/**
 * @file
 * Exactness tests for the pruned acquisition. AcquisitionBound checks
 * GaussianProcess::boundBatch() against the doubles predictBatch()
 * computes, on ordinary and adversarial fits, on every bound-pass body
 * the host runs (the AVX-512 clone and the AVX2 body on a CPU with
 * avx512f), and the two bodies against each other bit for bit.
 * PrunedAcquisition checks
 * selectCandidate() against a test-local full scan (predictBatch on
 * every candidate, then the first strict EI maximum by index): the
 * pick and its EI must match bit for bit, serially and on a pool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "../common/kernel_cases.hh"
#include "dse/bo.hh"
#include "dse/gp.hh"
#include "tensor/kernels/kernels.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace vaesa {
namespace {

using Points = std::vector<std::vector<double>>;

std::uint64_t
bitsOf(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

Points
uniformPoints(std::size_t count, std::size_t dim, Rng &rng)
{
    Points xs(count, std::vector<double>(dim));
    for (auto &x : xs)
        for (double &v : x)
            v = rng.uniform(-1.0, 1.0);
    return xs;
}

std::vector<double>
smoothLabels(const Points &xs)
{
    std::vector<double> ys;
    for (const auto &x : xs)
        ys.push_back(std::sin(3.0 * x[0]) +
                     x[std::min<std::size_t>(1, x.size() - 1)] *
                         x[x.size() - 1]);
    return ys;
}

/** Candidates as an acquisition sees them: uniform points, the
 *  training points themselves, and small perturbations of them. */
Points
probePoints(const Points &train, std::size_t uniform, Rng &rng)
{
    Points out = uniformPoints(uniform, train.front().size(), rng);
    for (const auto &x : train) {
        out.push_back(x);
        std::vector<double> near = x;
        for (double &v : near)
            v += rng.normal(0.0, 1e-3);
        out.push_back(near);
    }
    return out;
}

/** Every bound and refined bound is finite and brackets preds[j];
 *  refining keeps the mean bound and never loosens the variance's. */
void
expectBracketed(const Points &xs,
                const std::vector<GaussianProcess::Prediction> &preds,
                const std::vector<GaussianProcess::Bound> &bounds,
                const std::vector<GaussianProcess::Bound> &refined,
                const std::string &where)
{
    for (const bool subset : {false, true}) {
        const std::vector<GaussianProcess::Bound> &b =
            subset ? refined : bounds;
        const std::string label = where + (subset ? " subset" : "");
        std::size_t broken = 0;
        for (std::size_t j = 0; j < xs.size(); ++j) {
            ASSERT_TRUE(std::isfinite(b[j].meanLower) &&
                        std::isfinite(b[j].varUpper))
                << label << " j=" << j;
            if (b[j].meanLower <= preds[j].mean &&
                b[j].varUpper >= preds[j].var)
                continue;
            if (++broken <= 3)
                ADD_FAILURE() << label << " j=" << j << ": mean "
                              << preds[j].mean << " lower "
                              << b[j].meanLower << ", var "
                              << preds[j].var << " upper "
                              << b[j].varUpper;
        }
        EXPECT_EQ(broken, 0u) << label;
    }
    for (std::size_t j = 0; j < xs.size(); ++j) {
        EXPECT_EQ(bitsOf(refined[j].meanLower), bitsOf(bounds[j].meanLower));
        EXPECT_LE(refined[j].varUpper, bounds[j].varUpper) << where;
    }
}

/** The bound-pass bodies @p gp runs on this host: the one
 *  boundBatch() dispatches to and, on a CPU with avx512f, the AVX2
 *  body as well. */
std::vector<kernels::GemmIsa>
boundPaths(const GaussianProcess &gp)
{
    std::vector<kernels::GemmIsa> paths;
    for (const auto isa : {kernels::GemmIsa::Avx512, kernels::GemmIsa::Avx2,
                           kernels::GemmIsa::Generic})
        if (gp.boundBatchOn(isa, {}, {}))
            paths.push_back(isa);
    return paths;
}

/** Every bound is finite and holds on the computed prediction, both
 *  boundBatch()'s, on each body the host runs, and, refined,
 *  refineBatch()'s, which is never looser. */
void
expectBoundsHold(const GaussianProcess &gp, const Points &xs,
                 const std::string &where)
{
    std::vector<GaussianProcess::Prediction> preds(xs.size());
    gp.predictBatch(xs, preds);
    for (const auto isa : boundPaths(gp)) {
        const std::string on = where + " on " + kernels::gemmIsaName(isa);
        std::vector<GaussianProcess::Bound> bounds(xs.size());
        ASSERT_TRUE(gp.boundBatchOn(isa, xs, bounds)) << on;
        std::vector<GaussianProcess::Bound> refined = bounds;
        gp.refineBatch(xs, refined);
        expectBracketed(xs, preds, bounds, refined, on);
    }
}

class AcquisitionBound
    : public ::testing::TestWithParam<testing::KernelCase>
{
  protected:
    GaussianProcess::Hyper
    hyper(const GaussianProcess::Hyper &h = {}) const
    {
        return testing::caseHyper(GetParam(), h);
    }
};

TEST_P(AcquisitionBound, HoldsOnRandomFits)
{
    Rng rng(41);
    for (std::size_t n : {1, 31, 32, 33, 192}) {
        const Points xs = uniformPoints(n, 4, rng);
        const std::vector<double> ys = smoothLabels(xs);
        const Points probes = probePoints(xs, 640, rng);
        for (const double noise : {1e-6, 1e-4, 1e-2}) {
            for (const double ls : {0.05, 0.3, 1.6}) {
                GaussianProcess gp(hyper({ls, noise}));
                gp.fit(xs, ys);
                expectBoundsHold(gp, probes,
                                 "n=" + std::to_string(n) + " noise=" +
                                     std::to_string(noise) +
                                     " ls=" + std::to_string(ls));
            }
        }
        GaussianProcess searched(hyper());
        searched.fitWithHyperSearch(xs, ys);
        expectBoundsHold(searched, probes,
                         "hyper search n=" + std::to_string(n));
    }
}

TEST_P(AcquisitionBound, HoldsOnNearDuplicates)
{
    // Clusters of nearly identical points with almost no noise: the
    // factor is ill-conditioned and the variance cancels at and
    // around them.
    Points xs;
    for (int c = 0; c < 16; ++c) {
        const std::vector<double> base{0.1 * c - 0.8, 0.3 - 0.04 * c};
        for (int r = 0; r < 4; ++r)
            xs.push_back({base[0] + 1e-9 * r, base[1] - 1e-9 * r});
    }
    const std::vector<double> ys = smoothLabels(xs);
    Rng rng(43);
    const Points probes = probePoints(xs, 320, rng);
    for (const double noise : {1e-6, 1e-10}) {
        GaussianProcess gp(hyper({0.4, noise}));
        gp.fit(xs, ys);
        expectBoundsHold(gp, probes, "noise=" + std::to_string(noise));
    }
}

TEST_P(AcquisitionBound, HoldsOnJitteredFactor)
{
    // An exact duplicate makes K singular, so K - 1e-4 I has a
    // negative eigenvalue and no plain Cholesky factor: the fit must
    // take the choleskyJittered path, whose factor carries a diagonal
    // well above 1 + noiseVar.
    Rng rng(47);
    Points xs = uniformPoints(40, 3, rng);
    xs.push_back(xs[7]);
    xs.push_back(xs[19]);
    const std::vector<double> ys = smoothLabels(xs);
    const Points probes = probePoints(xs, 320, rng);
    for (const double ls : {0.3, 1.0}) {
        GaussianProcess gp(hyper({ls, -1e-4}));
        gp.fit(xs, ys);
        expectBoundsHold(gp, probes, "ls=" + std::to_string(ls));
    }
}

TEST_P(AcquisitionBound, NonFiniteInputsPromiseNothing)
{
    Rng rng(53);
    const Points xs = uniformPoints(12, 2, rng);
    std::vector<double> ys = smoothLabels(xs);
    const Points probes{{0.1, std::nan("")},
                        {std::numeric_limits<double>::infinity(), 0.0}};
    std::vector<GaussianProcess::Bound> bounds(probes.size());

    GaussianProcess gp(hyper());
    gp.fit(xs, ys);
    gp.boundBatch(probes, bounds);
    for (const auto &b : bounds) {
        EXPECT_TRUE(std::isnan(b.meanLower));
        EXPECT_TRUE(std::isnan(b.varUpper));
    }

    ys[3] = std::nan("");
    gp.fit(xs, ys);
    const Points finite{{0.1, 0.2}};
    gp.boundBatch(finite, std::span(bounds).first(1));
    EXPECT_TRUE(std::isnan(bounds[0].meanLower));
    EXPECT_TRUE(std::isnan(bounds[0].varUpper));
}

TEST_P(AcquisitionBound, SubsetBoundHoldsWhereItIsExact)
{
    // With at most four training points the subset is all of them and
    // the subset bound is the exact variance up to its margins: it
    // holds only if they cover the rounding, including on
    // ill-conditioned fits (near-duplicates, almost no noise).
    Rng rng(73);
    for (std::size_t trial = 0; trial < 120; ++trial) {
        const std::size_t n = 2 + trial % 3;
        Points xs = uniformPoints(n, 2, rng);
        for (std::size_t i = 1; i < n; ++i)
            if (rng.uniform() < 0.5)
                for (std::size_t d = 0; d < 2; ++d)
                    xs[i][d] = xs[0][d] + rng.normal(0.0, 1e-4);
        const std::vector<double> ys = smoothLabels(xs);
        Points probes = probePoints(xs, 8, rng);
        for (const auto &x : xs) {
            std::vector<double> near = x;
            for (double &v : near)
                v += rng.normal(0.0, 1e-6);
            probes.push_back(near);
        }
        static constexpr double noises[] = {1e-10, 1e-8, 1e-6, 1e-3};
        GaussianProcess gp(
            hyper({trial % 2 ? 0.3 : 1.0, noises[trial / 3 % 4]}));
        gp.fit(xs, ys);
        expectBoundsHold(gp, probes, "trial " + std::to_string(trial));
    }
}

TEST_P(AcquisitionBound, SubsetBoundIsTighterNearClusters)
{
    // Clusters of four nearby training points: a short way from one,
    // the posterior variance is what all four explain, which the
    // one-point bound overstates and the subset bound nearly matches.
    Rng rng(67);
    Points xs;
    for (int c = 0; c < 12; ++c) {
        const Points centre = uniformPoints(1, 3, rng);
        for (int r = 0; r < 4; ++r) {
            std::vector<double> x = centre[0];
            for (double &v : x)
                v += rng.normal(0.0, 0.02);
            xs.push_back(x);
        }
    }
    const std::vector<double> ys = smoothLabels(xs);
    Points probes;
    for (const auto &x : xs) {
        std::vector<double> near = x;
        for (double &v : near)
            v += rng.normal(0.0, 0.03);
        probes.push_back(near);
    }
    for (const double noise : {1e-6, 1e-4}) {
        GaussianProcess gp(hyper({0.5, noise}));
        gp.fit(xs, ys);
        const std::string where = "noise=" + std::to_string(noise);
        expectBoundsHold(gp, probes, where);

        std::vector<GaussianProcess::Bound> bounds(probes.size());
        gp.boundBatch(probes, bounds);
        std::vector<GaussianProcess::Bound> refined = bounds;
        gp.refineBatch(probes, refined);
        std::size_t tighter = 0;
        for (std::size_t j = 0; j < probes.size(); ++j)
            tighter += refined[j].varUpper < 0.5 * bounds[j].varUpper;
        EXPECT_GT(tighter, probes.size() / 2) << where;
    }
}

TEST_P(AcquisitionBound, SubsetBoundKeepsNanAndSkipsTinyFits)
{
    Rng rng(71);
    const Points xs = uniformPoints(12, 2, rng);
    const Points probes{{0.1, std::nan("")}, {0.2, 0.3}};
    GaussianProcess gp(hyper());
    gp.fit(xs, smoothLabels(xs));
    std::vector<GaussianProcess::Bound> bounds(probes.size());
    gp.boundBatch(probes, bounds);
    gp.refineBatch(probes, bounds);
    EXPECT_TRUE(std::isnan(bounds[0].meanLower));
    EXPECT_TRUE(std::isnan(bounds[0].varUpper));
    EXPECT_TRUE(std::isfinite(bounds[1].varUpper));

    // One training point: the subset is the one-point bound already
    // taken, so nothing changes.
    GaussianProcess single(hyper());
    single.fit({{0.4, 0.4}}, {1.0});
    const Points near{{0.45, 0.4}};
    std::vector<GaussianProcess::Bound> b(1);
    single.boundBatch(near, b);
    const GaussianProcess::Bound before = b[0];
    single.refineBatch(near, b);
    EXPECT_EQ(bitsOf(b[0].varUpper), bitsOf(before.varUpper));
}

constexpr const char *kNoAvx512 =
    "no AVX-512 bound pass here: the CPU does not report avx512f, or "
    "the build is not x86-64";

/** The AVX-512 clone's bounds of every point of @p xs equal the AVX2
 *  body's bit for bit, NaN bounds included. */
void
expectSameBounds(const GaussianProcess &gp, const Points &xs,
                 const std::string &where)
{
    std::vector<GaussianProcess::Bound> wide(xs.size());
    std::vector<GaussianProcess::Bound> narrow(xs.size());
    ASSERT_TRUE(gp.boundBatchOn(kernels::GemmIsa::Avx512, xs, wide));
    ASSERT_TRUE(gp.boundBatchOn(kernels::GemmIsa::Avx2, xs, narrow));
    std::size_t differ = 0;
    for (std::size_t j = 0; j < xs.size(); ++j) {
        if (bitsOf(wide[j].meanLower) == bitsOf(narrow[j].meanLower) &&
            bitsOf(wide[j].varUpper) == bitsOf(narrow[j].varUpper))
            continue;
        if (++differ <= 3)
            ADD_FAILURE() << where << " j=" << j << ": avx512 ("
                          << wide[j].meanLower << ", " << wide[j].varUpper
                          << ") avx2 (" << narrow[j].meanLower << ", "
                          << narrow[j].varUpper << ")";
    }
    EXPECT_EQ(differ, 0u) << where;
}

TEST_P(AcquisitionBound, Avx512BoundsMatchAvx2BitForBit)
{
    Rng rng(79);
    {
        GaussianProcess probe(hyper());
        probe.fit({{0.0}}, {0.0});
        if (!probe.boundBatchOn(kernels::GemmIsa::Avx512, {}, {}))
            GTEST_SKIP() << kNoAvx512;
    }
    // Training sets around the tile and block edges up to the subset
    // cap; candidate counts that run only the one-candidate tail, one
    // full tile, a full tile and a tail, and an acquisition's 640.
    for (std::size_t n : {1, 2, 31, 32, 33, 191, 192}) {
        const Points xs = uniformPoints(n, 4, rng);
        GaussianProcess gp(hyper({0.3, 1e-4}));
        gp.fit(xs, smoothLabels(xs));
        for (std::size_t count : {1, 31, 32, 33, 640}) {
            const std::string where =
                "n=" + std::to_string(n) + " count=" + std::to_string(count);
            // The training points and their perturbations come last.
            const Points all = probePoints(xs, count, rng);
            expectSameBounds(gp, Points(all.end() - count, all.end()),
                             where);
        }
        expectBoundsHold(gp, probePoints(xs, 640, rng),
                         "n=" + std::to_string(n));
    }

    // Full tiles and a tail over one to eight dimensions.
    for (std::size_t dim = 1; dim <= 8; ++dim) {
        const Points xs = uniformPoints(50, dim, rng);
        GaussianProcess gp(hyper({0.5, 1e-4}));
        gp.fit(xs, smoothLabels(xs));
        expectSameBounds(gp, probePoints(xs, 65, rng),
                         "dim=" + std::to_string(dim));
    }

    // A NaN candidate inside a full tile and in the tail.
    Rng nan_rng(83);
    const Points xs = uniformPoints(40, 3, nan_rng);
    GaussianProcess gp(hyper());
    gp.fit(xs, smoothLabels(xs));
    Points probes = uniformPoints(33, 3, nan_rng);
    probes[5][1] = std::nan("");
    probes[32][0] = std::nan("");
    expectSameBounds(gp, probes, "nan candidates");

    // A jittered fit, whose factor's diagonal is well above 1.
    Points dup = xs;
    dup.push_back(dup[7]);
    dup.push_back(dup[19]);
    GaussianProcess jittered(hyper({0.3, -1e-4}));
    jittered.fit(dup, smoothLabels(dup));
    const Points near = probePoints(dup, 320, nan_rng);
    expectSameBounds(jittered, near, "jittered");
    expectBoundsHold(jittered, near, "jittered");
}

INSTANTIATE_TEST_SUITE_P(Kernels, AcquisitionBound, testing::kernelCases(),
                         testing::kernelCaseName);

/** The full scan selectCandidate() replaces: every scored candidate
 *  through predictBatch, then the first strict EI maximum. */
Acquisition
fullScan(const GaussianProcess &gp, const Points &candidates, double best,
         std::size_t &ties)
{
    const std::span<const std::vector<double>> scored =
        std::span(candidates).subspan(1);
    std::vector<GaussianProcess::Prediction> preds(scored.size());
    if (!scored.empty())
        gp.predictBatch(scored, preds);
    Acquisition pick;
    for (std::size_t i = 1; i < candidates.size(); ++i) {
        const double ei = expectedImprovement(preds[i - 1], best);
        if (ei > pick.ei) {
            pick.ei = ei;
            pick.index = i;
        }
    }
    ties = 0;
    for (std::size_t i = 1; i < candidates.size(); ++i)
        ties += expectedImprovement(preds[i - 1], best) == pick.ei;
    return pick;
}

/** One random acquisition problem. */
struct Problem
{
    GaussianProcess gp;
    Points candidates;
    double best = 0.0;
    std::string label;
};

/** What, besides the random fit, an equivalence problem stresses. */
enum class Scenario
{
    Plain,
    NanLabels,       // every prediction, and EI, is NaN
    InfiniteTarget,  // best = +inf: every EI, and every bound, is inf
    AllZeroEi,       // every EI underflows to an exact 0: one big tie
    NanCandidate,    // one candidate has a NaN coordinate
    Count
};

const char *
scenarioName(Scenario s)
{
    switch (s) {
      case Scenario::Plain: return "plain";
      case Scenario::NanLabels: return "nan labels";
      case Scenario::InfiniteTarget: return "infinite target";
      case Scenario::AllZeroEi: return "all-zero EI";
      case Scenario::NanCandidate: return "nan candidate";
      case Scenario::Count: break;
    }
    return "?";
}

/**
 * Iteration `it` of the equivalence sweep: a random fit in either
 * kernel case (sometimes by hyperparameter search) and a candidate set
 * of 0, 1, 33 or 640 scored points, a fifth of them near training
 * points and a tenth exact duplicates of earlier candidates (exact EI
 * ties). Each scenario meets each candidate count.
 */
Problem
makeProblem(std::size_t it, Rng &rng)
{
    static constexpr std::size_t counts[] = {0, 1, 33, 640};
    static constexpr double noises[] = {1e-6, 1e-4, 1e-2};
    static constexpr double lengthscales[] = {0.1, 0.3, 0.8};
    const std::size_t count = counts[it % 4];
    const auto scenario = static_cast<Scenario>(
        it / 4 % static_cast<std::size_t>(Scenario::Count));
    const std::size_t dim = 2 + it / 7 % 3;
    const std::size_t n = 1 + rng.index(48);
    const Points xs = uniformPoints(n, dim, rng);
    std::vector<double> ys = smoothLabels(xs);
    if (scenario == Scenario::NanLabels)
        ys[rng.index(n)] = std::nan("");

    const auto kernel_case = it / 20 % 2 ? testing::KernelCase::Rbf
                                         : testing::KernelCase::Matern52;
    Problem p{GaussianProcess(testing::caseHyper(
                  kernel_case, {lengthscales[it % 3], noises[it / 3 % 3]})),
              {},
              0.0,
              {}};
    if (it % 5 == 0)
        p.gp.fitWithHyperSearch(xs, ys);
    else
        p.gp.fit(xs, ys);

    p.candidates = uniformPoints(1 + count, dim, rng);
    for (std::size_t i = 1; i <= count; ++i) {
        const double r = rng.uniform();
        if (r < 0.2) // a perturbed training point
            for (std::size_t d = 0; d < dim; ++d)
                p.candidates[i][d] =
                    xs[rng.index(n)][d] + rng.normal(0.0, 0.05);
        else if (r < 0.3) // an exact duplicate of an earlier candidate
            p.candidates[i] = p.candidates[1 + rng.index(i)];
    }
    if (scenario == Scenario::NanCandidate && count > 0)
        p.candidates[1 + rng.index(count)][0] = std::nan("");

    p.best = ys[0];
    for (double y : ys)
        p.best = std::min(p.best, y);
    if (scenario == Scenario::InfiniteTarget)
        p.best = std::numeric_limits<double>::infinity();
    if (scenario == Scenario::AllZeroEi && count > 0) {
        // Far enough below every mean that each EI is exactly 0.
        std::vector<GaussianProcess::Prediction> preds(count);
        p.gp.predictBatch(std::span(p.candidates).subspan(1), preds);
        for (const auto &pred : preds)
            p.best = std::min(p.best,
                              pred.mean - 40.0 * std::sqrt(pred.var) -
                                  1e-300);
    }
    p.label = "iteration " + std::to_string(it) + " (" +
              scenarioName(scenario) + ", n=" + std::to_string(n) +
              ", candidates=" + std::to_string(count) + ")";
    return p;
}

class PrunedAcquisition : public ::testing::TestWithParam<bool>
{
  protected:
    std::unique_ptr<ThreadPool> pool =
        GetParam() ? std::make_unique<ThreadPool>(3) : nullptr;
};

TEST_P(PrunedAcquisition, MatchesFullScan)
{
    Rng rng(59);
    std::size_t pruned = 0;
    std::size_t refined = 0;
    for (std::size_t it = 0; it < 1000; ++it) {
        const Problem p = makeProblem(it, rng);
        std::size_t ties = 0;
        const Acquisition want = fullScan(p.gp, p.candidates, p.best, ties);
        const Acquisition got =
            selectCandidate(p.gp, p.candidates, p.best, pool.get());
        const std::size_t count = p.candidates.size() - 1;
        ASSERT_EQ(got.index, want.index) << p.label;
        ASSERT_EQ(bitsOf(got.ei), bitsOf(want.ei))
            << p.label << ": EI " << got.ei << " vs " << want.ei;
        ASSERT_LE(got.solved, count) << p.label;
        // Past the first tile, only a refined candidate is solved.
        ASSERT_LE(got.refined, count) << p.label;
        ASSERT_LE(got.solved,
                  std::min(count, GaussianProcess::predictTile *
                                      (pool ? pool->threadCount() : 1)) +
                      got.refined)
            << p.label;
        if (count > 0) {
            ASSERT_GE(got.solved, 1u) << p.label;
        }
        // Every candidate that ties the winning EI can still win, so
        // none of them may be pruned.
        if (want.index > 0) {
            ASSERT_GE(got.solved, ties) << p.label;
        }
        pruned += count - got.solved;
        refined += got.refined;
    }
    // The sweep is only a test of pruning if something was pruned,
    // and of the subset bound if some candidates reached it.
    EXPECT_GT(pruned, 0u);
    EXPECT_GT(refined, 0u);
}

TEST_P(PrunedAcquisition, EmptyScoredSetKeepsTheFallback)
{
    GaussianProcess gp;
    gp.fit({{0.2}, {0.7}}, {1.0, 2.0});
    const Points only_fallback{{0.5}};
    const Acquisition pick =
        selectCandidate(gp, only_fallback, 1.0, pool.get());
    EXPECT_EQ(pick.index, 0u);
    EXPECT_EQ(pick.ei, -1.0);
    EXPECT_EQ(pick.solved, 0u);
}

INSTANTIATE_TEST_SUITE_P(Workers, PrunedAcquisition, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &info) {
                             return info.param ? std::string("Pool")
                                               : std::string("Serial");
                         });

/** Shifted bowl on [-1, 1]^2. */
class BowlObjective : public Objective
{
  public:
    std::size_t dim() const override { return 2; }
    std::vector<double> lowerBounds() const override
    {
        return {-1.0, -1.0};
    }
    std::vector<double> upperBounds() const override
    {
        return {1.0, 1.0};
    }
    double
    evaluate(const std::vector<double> &x) override
    {
        const double dx = x[0] - 0.3;
        const double dy = x[1] + 0.2;
        return dx * dx + dy * dy;
    }
};

TEST(PrunedAcquisitionCounters, CountScoredAndSolvedCandidates)
{
    metrics::Counter &candidates =
        metrics::counter("search.bo.candidates");
    metrics::Counter &solved = metrics::counter("search.bo.solved");
    metrics::Counter &refined = metrics::counter("search.bo.refined");
    metrics::Counter &iterations =
        metrics::counter("search.bo.iterations");
    const std::uint64_t c0 = candidates.value();
    const std::uint64_t s0 = solved.value();
    const std::uint64_t r0 = refined.value();
    const std::uint64_t i0 = iterations.value();

    BowlObjective obj;
    Rng rng(61);
    BayesOpt().run(obj, BayesOpt::initSamples + 20, rng);

    // Every iteration after the warm-up fits the GP and scores
    // 512 uniform + 128 local candidates; each solves its first tile
    // of 32, and after it only candidates that reached the subset
    // bound, which are never the first tile's.
    const std::uint64_t its = iterations.value() - i0;
    ASSERT_EQ(its, 20u);
    const std::uint64_t tile = GaussianProcess::predictTile;
    EXPECT_EQ(candidates.value() - c0, its * 640);
    EXPECT_GE(solved.value() - s0, its * tile);
    EXPECT_LE(solved.value() - s0, its * tile + (refined.value() - r0));
    EXPECT_LE(refined.value() - r0, its * (640 - tile));
}

} // namespace
} // namespace vaesa
