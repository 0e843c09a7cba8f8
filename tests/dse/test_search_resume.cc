/**
 * @file
 * Kill-and-resume tests for the DSE drivers and graceful-degradation
 * tests for the evaluation path. All runs are serial (no pool): fault
 * hit-counts are only deterministic when evaluations are ordered.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "../common/temp_path.hh"
#include "util/atomic_io.hh"

#include "dse/bo.hh"
#include "dse/random_search.hh"
#include "dse/search_state.hh"
#include "util/fault.hh"
#include "util/metrics.hh"
#include "workload/networks.hh"

namespace vaesa {
namespace {

/** Cheap deterministic 2-D objective with a unique minimum. */
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
        return x[0] * x[0] + x[1] * x[1];
    }

    int evals = 0;
};

void
expectSameTrace(const SearchTrace &a, const SearchTrace &b)
{
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].x, b.points[i].x)
            << "point " << i << " diverged";
        EXPECT_EQ(a.points[i].value, b.points[i].value)
            << "value " << i << " diverged";
    }
}

class SearchResumeTest : public ::testing::Test
{
  protected:
    std::string
    snapshotPath()
    {
        return testing::uniqueTempPath("vaesa_search_snap", ".bin");
    }

    SearchCheckpointConfig
    config(std::size_t every = 1)
    {
        SearchCheckpointConfig cfg;
        cfg.path = snapshotPath();
        cfg.every = every;
        return cfg;
    }

    void
    TearDown() override
    {
        FaultInjector::instance().reset();
        std::remove(snapshotPath().c_str());
        std::remove((snapshotPath() + ".tmp").c_str());
        std::remove(
            previousCheckpointPath(snapshotPath()).c_str());
    }
};

TEST_F(SearchResumeTest, RandomSearchKilledRunResumesIdentically)
{
    BowlObjective baseline_obj;
    Rng baseline_rng(5);
    const SearchTrace baseline =
        RandomSearch().run(baseline_obj, 40, baseline_rng);

    const SearchCheckpointConfig cfg = config(/*every=*/5);
    BowlObjective killed_obj;
    Rng killed_rng(5);
    FaultInjector::instance().arm("random_chunk", 5);
    EXPECT_THROW(RandomSearch().run(killed_obj, 40, killed_rng,
                                    nullptr, &cfg),
                 InjectedFault);
    FaultInjector::instance().reset();
    EXPECT_LT(killed_obj.evals, 40);

    BowlObjective resumed_obj;
    Rng resumed_rng(5);
    const SearchTrace resumed = RandomSearch().run(
        resumed_obj, 40, resumed_rng, nullptr, &cfg);
    expectSameTrace(baseline, resumed);
    // The resumed run re-evaluates only the missing tail.
    EXPECT_EQ(killed_obj.evals + resumed_obj.evals, 40);
}

TEST_F(SearchResumeTest, RandomSearchCheckpointingDoesNotPerturb)
{
    BowlObjective plain_obj;
    Rng plain_rng(6);
    const SearchTrace plain =
        RandomSearch().run(plain_obj, 30, plain_rng);

    const SearchCheckpointConfig cfg = config(/*every=*/4);
    BowlObjective ckpt_obj;
    Rng ckpt_rng(6);
    const SearchTrace checkpointed =
        RandomSearch().run(ckpt_obj, 30, ckpt_rng, nullptr, &cfg);
    expectSameTrace(plain, checkpointed);
}

TEST_F(SearchResumeTest, BayesOptKilledRunResumesIdentically)
{
    BowlObjective baseline_obj;
    Rng baseline_rng(13);
    const SearchTrace baseline =
        BayesOpt().run(baseline_obj, 22, baseline_rng);

    const SearchCheckpointConfig cfg = config();
    BowlObjective killed_obj;
    Rng killed_rng(13);
    // Kill a few iterations after the warm-up phase.
    FaultInjector::instance().arm("bo_iteration", 4);
    EXPECT_THROW(BayesOpt().run(killed_obj, 22, killed_rng, nullptr,
                                &cfg),
                 InjectedFault);
    FaultInjector::instance().reset();

    BowlObjective resumed_obj;
    Rng resumed_rng(13);
    const SearchTrace resumed =
        BayesOpt().run(resumed_obj, 22, resumed_rng, nullptr, &cfg);
    expectSameTrace(baseline, resumed);
    // The resume skipped the iterations the killed run completed.
    EXPECT_GT(killed_obj.evals, 0);
    EXPECT_LT(resumed_obj.evals, 22);
}

TEST_F(SearchResumeTest, BayesOptResumeAcrossRefitAndCapIsExact)
{
    // Killed at sample ~120: past several hyperparameter refits
    // (every 16 iterations), before the 192-point subset cap, and in
    // the middle of a run of extended Cholesky factors. The resumed
    // GP starts with no factor and refactors in full, then runs
    // through more refits and past the cap; the trace must still
    // match the uninterrupted run bit for bit, so the extended
    // factor carries no state a snapshot would need.
    constexpr std::size_t samples = 220;
    BowlObjective baseline_obj;
    Rng baseline_rng(21);
    const SearchTrace baseline =
        BayesOpt().run(baseline_obj, samples, baseline_rng);

    const SearchCheckpointConfig cfg = config(/*every=*/1);
    BowlObjective killed_obj;
    Rng killed_rng(21);
    // The warm-up is 10 samples, one per iteration after it.
    FaultInjector::instance().arm("bo_iteration", 111);
    EXPECT_THROW(BayesOpt().run(killed_obj, samples, killed_rng,
                                nullptr, &cfg),
                 InjectedFault);
    FaultInjector::instance().reset();
    EXPECT_EQ(killed_obj.evals, 120);

    BowlObjective resumed_obj;
    Rng resumed_rng(21);
    const SearchTrace resumed = BayesOpt().run(
        resumed_obj, samples, resumed_rng, nullptr, &cfg);
    expectSameTrace(baseline, resumed);
    EXPECT_EQ(resumed_obj.evals, static_cast<int>(samples) - 120);
}

TEST_F(SearchResumeTest, SnapshotFromOtherDriverIsRejected)
{
    const SearchCheckpointConfig cfg = config();
    BowlObjective obj_a;
    Rng rng_a(3);
    RandomSearch().run(obj_a, 10, rng_a, nullptr, &cfg);

    // A BO run pointed at the random-search snapshot must not resume
    // from it: it starts fresh (and overwrites the snapshot).
    BowlObjective obj_b;
    Rng rng_b(3);
    const SearchTrace bo =
        BayesOpt().run(obj_b, 20, rng_b, nullptr, &cfg);
    BowlObjective obj_c;
    Rng rng_c(3);
    const SearchTrace plain = BayesOpt().run(obj_c, 20, rng_c);
    expectSameTrace(plain, bo);
}

TEST_F(SearchResumeTest, RetiredDriverTagIsRejected)
{
    // Driver tag 2 belonged to the retired genetic search. A snapshot
    // that names it must load for no live driver and never resume.
    const SearchCheckpointConfig cfg = config();
    SearchSnapshot snapshot;
    snapshot.driver = static_cast<SearchDriver>(2);
    snapshot.trace.points.push_back({{0.5, -0.5}, 0.5});
    snapshot.rng = Rng(99).state();
    ASSERT_FALSE(saveSearchSnapshot(cfg.path, snapshot).has_value());

    for (const SearchDriver driver :
         {SearchDriver::Random, SearchDriver::BayesOpt}) {
        const Expected<SearchSnapshot> loaded =
            loadSearchSnapshot(cfg.path, driver);
        ASSERT_FALSE(loaded);
        EXPECT_EQ(loaded.error().kind, LoadError::Kind::Malformed);

        // resumeSearch finds nothing to resume: the run starts fresh.
        EXPECT_FALSE(resumeSearch(cfg, driver).has_value());
    }
}

TEST_F(SearchResumeTest, BayesOptCorruptPayloadStartsFresh)
{
    // A loadable BO snapshot whose surrogate payload does not decode:
    // neither its trace nor its rng state may be taken.
    const SearchCheckpointConfig cfg = config();
    SearchSnapshot snapshot;
    snapshot.driver = SearchDriver::BayesOpt;
    snapshot.trace.points.push_back({{0.5, -0.5}, 0.5});
    snapshot.rng = Rng(99).state();
    snapshot.payload = "not a surrogate state";
    ASSERT_FALSE(saveSearchSnapshot(cfg.path, snapshot).has_value());

    BowlObjective resumed_obj;
    Rng resumed_rng(3);
    const SearchTrace resumed =
        BayesOpt().run(resumed_obj, 15, resumed_rng, nullptr, &cfg);
    BowlObjective plain_obj;
    Rng plain_rng(3);
    expectSameTrace(BayesOpt().run(plain_obj, 15, plain_rng), resumed);
    EXPECT_EQ(resumed_obj.evals, 15);
}

TEST_F(SearchResumeTest, ZeroIntervalPanicsInBothDrivers)
{
    const SearchCheckpointConfig cfg = config(/*every=*/0);
    BowlObjective obj;
    Rng rng(3);
    EXPECT_DEATH(RandomSearch().run(obj, 10, rng, nullptr, &cfg),
                 "every must be >= 1");
    EXPECT_DEATH(BayesOpt().run(obj, 15, rng, nullptr, &cfg),
                 "every must be >= 1");
}

TEST(EvalRecovery, TransientFaultRetriesToTheSameTrace)
{
    BowlObjective plain_obj;
    Rng plain_rng(21);
    const SearchTrace plain =
        RandomSearch().run(plain_obj, 25, plain_rng);

    // The 7th evaluation throws once; the bounded retry must recover
    // the same value and leave the whole trace unchanged.
    BowlObjective faulty_obj;
    Rng faulty_rng(21);
    FaultInjector::instance().arm("eval_throw", 7);
    const SearchTrace recovered =
        RandomSearch().run(faulty_obj, 25, faulty_rng);
    FaultInjector::instance().reset();
    expectSameTrace(plain, recovered);
    // The injected throw fires before the objective runs, so the
    // retry brings the evaluation count back to exactly the budget.
    EXPECT_EQ(faulty_obj.evals, 25);
}

TEST(EvalRecovery, TransientNanRetriesToTheSameTrace)
{
    BowlObjective plain_obj;
    Rng plain_rng(22);
    const SearchTrace plain =
        RandomSearch().run(plain_obj, 25, plain_rng);

    BowlObjective faulty_obj;
    Rng faulty_rng(22);
    FaultInjector::instance().arm("eval_nan", 4);
    const SearchTrace recovered =
        RandomSearch().run(faulty_obj, 25, faulty_rng);
    FaultInjector::instance().reset();
    expectSameTrace(plain, recovered);
}

TEST(EvalRecovery, PersistentFaultMarksCandidateInvalid)
{
    // Candidate 5 fails both attempts: a throw on the first and a
    // NaN on the second (eval_nan hits 1-4 come from candidates 1-4).
    BowlObjective obj;
    Rng rng(23);
    FaultInjector::instance().arm("eval_throw", 5);
    FaultInjector::instance().arm("eval_nan", 5);
    const SearchTrace trace = RandomSearch().run(obj, 12, rng);
    FaultInjector::instance().reset();

    ASSERT_EQ(trace.points.size(), 12u);
    EXPECT_TRUE(std::isinf(trace.points[4].value));
    // Every other candidate evaluated normally.
    for (std::size_t i = 0; i < trace.points.size(); ++i) {
        if (i != 4) {
            EXPECT_TRUE(std::isfinite(trace.points[i].value));
        }
    }
}

TEST(EvalRecovery, InvalidCounterCountsFailedEvaluationsOnly)
{
    // search.eval_invalid counts evaluations that failed both
    // attempts. An unmappable design (more PEs than MACs) scores
    // invalidScore without failing and is not one of them.
    metrics::Counter &invalid = metrics::counter("search.eval_invalid");
    Evaluator evaluator;
    InputSpaceObjective obj(evaluator, {alexNetLayers()[0]});
    const std::vector<double> unmappable{1.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    FaultInjector::instance().reset();

    const std::uint64_t before = invalid.value();
    EXPECT_EQ(evaluateRecovered(obj, unmappable), invalidScore);
    EXPECT_EQ(invalid.value(), before);

    // A throw on the first attempt and a NaN on the retry.
    FaultInjector::instance().arm("eval_throw", 1);
    FaultInjector::instance().arm("eval_nan", 1);
    EXPECT_EQ(evaluateRecovered(obj, {0.5, 0.5, 0.5, 0.5, 0.5, 0.5}),
              invalidScore);
    FaultInjector::instance().reset();
    EXPECT_EQ(invalid.value(), before + 1);
}

} // namespace
} // namespace vaesa
