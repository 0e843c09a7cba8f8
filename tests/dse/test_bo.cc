/** @file Unit tests for Bayesian optimization. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "dse/bo.hh"
#include "dse/random_search.hh"

namespace vaesa {
namespace {

/** Shifted quadratic bowl with minimum at (0.3, -0.2). */
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
        ++evals;
        const double dx = x[0] - 0.3;
        const double dy = x[1] + 0.2;
        return dx * dx + dy * dy;
    }

    int evals = 0;
};

/** Bowl with an invalid (infinite) wedge, mimicking unmappable
 *  designs. */
class PartiallyInvalidObjective : public BowlObjective
{
  public:
    double
    evaluate(const std::vector<double> &x) override
    {
        if (x[0] < -0.5)
            return invalidScore;
        return BowlObjective::evaluate(x);
    }
};

TEST(ExpectedImprovement, ZeroWhenCertainAndWorse)
{
    GaussianProcess::Prediction pred{10.0, 0.0};
    EXPECT_DOUBLE_EQ(expectedImprovement(pred, 5.0), 0.0);
}

TEST(ExpectedImprovement, ImprovementWhenCertainAndBetter)
{
    GaussianProcess::Prediction pred{2.0, 0.0};
    EXPECT_DOUBLE_EQ(expectedImprovement(pred, 5.0), 3.0);
}

TEST(ExpectedImprovement, UncertaintyAddsValue)
{
    GaussianProcess::Prediction certain{5.0, 0.0};
    GaussianProcess::Prediction uncertain{5.0, 4.0};
    EXPECT_GT(expectedImprovement(uncertain, 5.0),
              expectedImprovement(certain, 5.0));
}

TEST(ExpectedImprovement, MonotoneInMean)
{
    GaussianProcess::Prediction better{1.0, 1.0};
    GaussianProcess::Prediction worse{3.0, 1.0};
    EXPECT_GT(expectedImprovement(better, 2.0),
              expectedImprovement(worse, 2.0));
}

TEST(BayesOpt, UsesExactBudget)
{
    BowlObjective obj;
    Rng rng(1);
    const SearchTrace trace = BayesOpt().run(obj, 30, rng);
    EXPECT_EQ(trace.points.size(), 30u);
    EXPECT_EQ(obj.evals, 30);
}

TEST(BayesOpt, FindsBowlMinimum)
{
    BowlObjective obj;
    Rng rng(2);
    const SearchTrace trace = BayesOpt().run(obj, 60, rng);
    EXPECT_LT(trace.best(), 0.01);
    const auto best = trace.bestPoint();
    EXPECT_NEAR(best[0], 0.3, 0.15);
    EXPECT_NEAR(best[1], -0.2, 0.15);
}

TEST(BayesOpt, BeatsRandomOnSmoothProblem)
{
    // Averaged over seeds, BO should reach a much better optimum on
    // a smooth 2-D bowl within the same budget.
    double bo_total = 0.0;
    double random_total = 0.0;
    for (int seed = 0; seed < 3; ++seed) {
        BowlObjective obj_bo;
        Rng rng_bo(seed);
        bo_total += BayesOpt().run(obj_bo, 40, rng_bo).best();
        BowlObjective obj_rnd;
        Rng rng_rnd(seed);
        random_total +=
            RandomSearch().run(obj_rnd, 40, rng_rnd).best();
    }
    EXPECT_LT(bo_total, random_total);
}

TEST(BayesOpt, SurvivesInvalidRegions)
{
    PartiallyInvalidObjective obj;
    Rng rng(3);
    const SearchTrace trace = BayesOpt().run(obj, 40, rng);
    EXPECT_EQ(trace.points.size(), 40u);
    EXPECT_LT(trace.best(), 0.05);
}

/** Shifted bowl plus a constant offset, invalid for x0 > 0. */
class OffsetHalfPlaneObjective : public BowlObjective
{
  public:
    explicit OffsetHalfPlaneObjective(double offset) : offset_(offset) {}

    double
    evaluate(const std::vector<double> &x) override
    {
        if (x[0] > 0.0)
            return invalidScore;
        const double dx = x[0] + 0.5;
        return dx * dx + x[1] * x[1] + offset_;
    }

  private:
    double offset_;
};

TEST(BayesOpt, InvalidPenaltyIsWorstForNegativeObjectives)
{
    // Regression: the invalid-point penalty was worst * factor, which
    // for an all-negative objective lies *below* every observation,
    // so the GP learned the infeasible half-plane as the best region
    // and every post-warm-up sample landed there. The offset only
    // moves the objective; the search should avoid the half-plane
    // alike for either sign, and when the worst value is near 0.
    for (const double offset : {-10.0, -1.25, 10.0}) {
        std::size_t infeasible = 0;
        std::size_t searched = 0;
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            OffsetHalfPlaneObjective obj(offset);
            Rng rng(seed);
            const SearchTrace trace = BayesOpt().run(obj, 80, rng);
            for (std::size_t i = BayesOpt::initSamples;
                 i < trace.points.size(); ++i) {
                ++searched;
                if (!std::isfinite(trace.points[i].value))
                    ++infeasible;
            }
        }
        EXPECT_EQ(searched, 350u);
        EXPECT_LT(infeasible, searched / 10)
            << "offset " << offset << ": " << infeasible << " of "
            << searched << " searched samples infeasible";
    }
}

TEST(BayesOpt, SamplesStayInBox)
{
    BowlObjective obj;
    Rng rng(4);
    const SearchTrace trace = BayesOpt().run(obj, 40, rng);
    for (const TracePoint &p : trace.points) {
        EXPECT_GE(p.x[0], -1.0);
        EXPECT_LE(p.x[0], 1.0);
        EXPECT_GE(p.x[1], -1.0);
        EXPECT_LE(p.x[1], 1.0);
    }
}

TEST(BayesOpt, DeterministicForSeed)
{
    BowlObjective a;
    BowlObjective b;
    Rng rng_a(9);
    Rng rng_b(9);
    const SearchTrace ta = BayesOpt().run(a, 25, rng_a);
    const SearchTrace tb = BayesOpt().run(b, 25, rng_b);
    for (std::size_t i = 0; i < 25; ++i)
        EXPECT_EQ(ta.points[i].value, tb.points[i].value);
}

TEST(BayesOpt, SubsetOfDataCapKeepsRunning)
{
    // Past the cap, every iteration fits the GP to a subset.
    constexpr std::size_t samples = 200;
    static_assert(samples > BayesOpt::maxGpPoints);
    BoOptions options;
    options.uniformCandidates = 64;
    options.localCandidates = 16;
    BowlObjective obj;
    Rng rng(5);
    const SearchTrace trace = BayesOpt(options).run(obj, samples, rng);
    EXPECT_EQ(trace.points.size(), samples);
    EXPECT_LT(trace.best(), 0.05);
}

} // namespace
} // namespace vaesa
