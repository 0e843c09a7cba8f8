/** @file Tests for BayesOpt option handling and edge cases. */

#include <gtest/gtest.h>

#include <cmath>

#include "dse/bo.hh"

namespace vaesa {
namespace {

class Bowl : public Objective
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
        return x[0] * x[0] + x[1] * x[1];
    }
};

/** Objective where every point is invalid. */
class AlwaysInvalid : public Bowl
{
  public:
    double
    evaluate(const std::vector<double> &x) override
    {
        ++evals;
        (void)x;
        return invalidScore;
    }

    int evals = 0;
};

TEST(BoOptions, WarmupLargerThanBudgetIsClamped)
{
    static_assert(BayesOpt::initSamples > 7);
    Bowl obj;
    Rng rng(1);
    const SearchTrace trace = BayesOpt().run(obj, 7, rng);
    EXPECT_EQ(trace.points.size(), 7u);
}

TEST(BoOptions, AllInvalidStillConsumesBudget)
{
    AlwaysInvalid obj;
    Rng rng(2);
    const SearchTrace trace = BayesOpt().run(obj, 25, rng);
    EXPECT_EQ(trace.points.size(), 25u);
    EXPECT_EQ(obj.evals, 25);
    EXPECT_TRUE(std::isinf(trace.best()));
}

TEST(BoOptions, TinyCandidateBudgetStillRuns)
{
    BoOptions options;
    options.uniformCandidates = 4;
    options.localCandidates = 0;
    Bowl obj;
    Rng rng(4);
    const SearchTrace trace = BayesOpt(options).run(obj, 30, rng);
    EXPECT_EQ(trace.points.size(), 30u);
    EXPECT_LT(trace.best(), 0.5);
}

TEST(BoOptions, ZeroBudgetIsEmpty)
{
    Bowl obj;
    Rng rng(6);
    EXPECT_TRUE(BayesOpt().run(obj, 0, rng).points.empty());
}

TEST(BoOptions, PenaltyFactorKeepsGpFiniteWithMixedValidity)
{
    // Half the box is invalid; the GP must still steer into the
    // valid half and find the optimum there.
    class HalfInvalid : public Bowl
    {
      public:
        double
        evaluate(const std::vector<double> &x) override
        {
            if (x[0] > 0.0)
                return invalidScore;
            const double dx = x[0] + 0.5;
            return dx * dx + x[1] * x[1];
        }
    };
    HalfInvalid obj;
    Rng rng(7);
    const SearchTrace trace = BayesOpt().run(obj, 60, rng);
    EXPECT_LT(trace.best(), 0.05);
    EXPECT_LT(trace.bestPoint()[0], 0.0);
}

TEST(BoOptions, ContinueRunDoesNotShrinkTrace)
{
    Bowl obj;
    Rng rng(8);
    BayesOpt bo;
    SearchTrace trace = bo.run(obj, 12, rng);
    const double best_before = trace.best();
    bo.continueRun(obj, trace, 0, rng);
    EXPECT_EQ(trace.points.size(), 12u);
    bo.continueRun(obj, trace, 5, rng);
    EXPECT_EQ(trace.points.size(), 17u);
    EXPECT_LE(trace.best(), best_before);
}

} // namespace
} // namespace vaesa
