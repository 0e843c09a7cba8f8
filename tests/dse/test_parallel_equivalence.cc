/**
 * @file
 * Seed-for-seed serial-vs-parallel equivalence of the search
 * drivers: running random search, GA, and BO with a thread pool must
 * reproduce the serial trace bit-for-bit — same points, same values,
 * same best-so-far history. This is the determinism contract that
 * makes the parallel evaluation layer trustworthy: parallelism may
 * only change wall-clock, never results.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "dse/bo.hh"
#include "dse/genetic.hh"
#include "dse/random_search.hh"
#include "util/fault.hh"
#include "util/thread_pool.hh"
#include "workload/networks.hh"

namespace vaesa {
namespace {

/** Small real workload so evaluations exercise the full stack. */
std::vector<LayerShape>
smallWorkload()
{
    const auto layers = alexNetLayers();
    return {layers[0], layers[1], layers[2]};
}

void
expectIdenticalTraces(const SearchTrace &a, const SearchTrace &b)
{
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].x, b.points[i].x) << "point " << i;
        // Exact double compare; invalidScore (inf) compares equal to
        // itself, so invalid samples must line up too.
        EXPECT_EQ(a.points[i].value, b.points[i].value)
            << "value " << i;
    }
    // Redundant given the above, but states the acceptance criterion
    // directly: identical best-so-far histories.
    EXPECT_EQ(a.bestCurve(), b.bestCurve());
}

TEST(ParallelEquivalence, RandomSearchTraceIsSeedForSeedIdentical)
{
    Evaluator evaluator;
    ThreadPool pool(4);
    for (std::uint64_t seed : {1u, 7u, 42u}) {
        InputSpaceObjective serialObj(evaluator, smallWorkload());
        Rng serialRng(seed);
        const SearchTrace serial =
            RandomSearch().run(serialObj, 40, serialRng);

        InputSpaceObjective poolObj(evaluator, smallWorkload());
        Rng poolRng(seed);
        const SearchTrace parallel =
            RandomSearch().run(poolObj, 40, poolRng, &pool);

        expectIdenticalTraces(serial, parallel);
        // Both runs must also have drained the rng identically, so
        // downstream draws stay aligned.
        EXPECT_EQ(serialRng.next(), poolRng.next());
    }
}

TEST(ParallelEquivalence, GeneticTraceIsSeedForSeedIdentical)
{
    Evaluator evaluator;
    ThreadPool pool(4);
    GaOptions options;
    options.populationSize = 12;
    for (std::uint64_t seed : {2u, 19u}) {
        InputSpaceObjective serialObj(evaluator, smallWorkload());
        Rng serialRng(seed);
        const SearchTrace serial =
            GeneticSearch(options).run(serialObj, 60, serialRng);

        InputSpaceObjective poolObj(evaluator, smallWorkload());
        Rng poolRng(seed);
        const SearchTrace parallel = GeneticSearch(options).run(
            poolObj, 60, poolRng, &pool);

        expectIdenticalTraces(serial, parallel);
        EXPECT_EQ(serialRng.next(), poolRng.next());
    }
}

TEST(ParallelEquivalence, BoTraceIsSeedForSeedIdentical)
{
    Evaluator evaluator;
    ThreadPool pool(4);
    BoOptions options;
    options.initSamples = 8;
    options.uniformCandidates = 48;
    options.localCandidates = 16;
    options.maxGpPoints = 32;

    InputSpaceObjective serialObj(evaluator, smallWorkload());
    Rng serialRng(5);
    const SearchTrace serial =
        BayesOpt(options).run(serialObj, 16, serialRng);

    InputSpaceObjective poolObj(evaluator, smallWorkload());
    Rng poolRng(5);
    const SearchTrace parallel =
        BayesOpt(options).run(poolObj, 16, poolRng, &pool);

    expectIdenticalTraces(serial, parallel);
    EXPECT_EQ(serialRng.next(), poolRng.next());
}

TEST(ParallelEquivalence, NonThreadSafeObjectiveFallsBackToSerial)
{
    // An objective that keeps per-call mutable state must never be
    // fanned out: with the default threadSafeEvaluate() == false the
    // drivers run it serially even when handed a pool.
    class CountingBowl : public Objective
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
            ++evals; // unsynchronized on purpose
            return x[0] * x[0] + x[1] * x[1];
        }
        int evals = 0;
    };

    ThreadPool pool(4);
    CountingBowl obj;
    ASSERT_FALSE(obj.threadSafeEvaluate());
    Rng rng(3);
    const SearchTrace trace =
        RandomSearch().run(obj, 25, rng, &pool);
    EXPECT_EQ(trace.points.size(), 25u);
    EXPECT_EQ(obj.evals, 25);
}

TEST(ParallelEquivalence, WorkloadObjectiveDeclaresThreadSafety)
{
    Evaluator evaluator;
    InputSpaceObjective obj(evaluator, smallWorkload());
    EXPECT_TRUE(obj.threadSafeEvaluate());
}

/** Deterministic batch of points in the [0,1]^dim search box. */
std::vector<std::vector<double>>
randomPoints(std::size_t count, std::size_t dim, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<double>> xs(count);
    for (std::vector<double> &x : xs) {
        x.resize(dim);
        for (double &v : x)
            v = rng.uniform();
    }
    // Inject exact duplicates so the batch dedup path is live.
    for (std::size_t i = 3; i + 1 < xs.size(); i += 7)
        xs[i + 1] = xs[i];
    return xs;
}

TEST(ParallelEquivalence, BatchScoringMatchesPerPointScoring)
{
    // The Objective::evaluateBatch contract: the batch-routed
    // override must return exactly what per-point evaluate() would,
    // in input order — the SoA pipeline may only change wall-clock.
    Evaluator evaluator;
    ThreadPool pool(4);
    InputSpaceObjective obj(evaluator, smallWorkload());
    const auto xs = randomPoints(64, obj.dim(), 13);

    const std::vector<double> batched = obj.evaluateBatch(xs, &pool);
    ASSERT_EQ(batched.size(), xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i)
        EXPECT_EQ(batched[i], obj.evaluate(xs[i])) << "point " << i;
}

TEST(ParallelEquivalence, BatchRecoveryMatchesPerPointUnderFaults)
{
    // With a pool, InputSpaceObjective::evaluateBatch scores through
    // the SoA pipeline and then replays the recovery protocol over
    // each raw value; without one it runs evaluateRecovered() per
    // point. The same armed hits must give both paths the same values
    // and the same fault-site hit counts.
    Evaluator evaluator;
    ThreadPool pool(4);
    InputSpaceObjective obj(evaluator, smallWorkload());
    const auto xs = randomPoints(24, obj.dim(), 29);
    FaultInjector::instance().reset();
    const std::vector<double> clean = obj.evaluateBatch(xs, nullptr);

    struct Case
    {
        const char *name;
        std::uint64_t throwNth; // 0 leaves the site disarmed
        std::uint64_t nanNth;
        std::size_t invalidAt;  // xs.size() when every point recovers
    };
    const Case cases[] = {
        {"transient throw", 7, 0, xs.size()},
        {"transient nan", 0, 4, xs.size()},
        // Point 5's first attempt throws and its retry is the fifth
        // eval_nan hit (points 1-4 made the first four).
        {"throw then nan", 5, 5, 4},
    };
    for (const Case &c : cases) {
        FaultInjector &faults = FaultInjector::instance();
        const auto runArmed = [&](ThreadPool *p) {
            faults.reset();
            if (c.throwNth)
                faults.arm("eval_throw", c.throwNth);
            if (c.nanNth)
                faults.arm("eval_nan", c.nanNth);
            return obj.evaluateBatch(xs, p);
        };
        const std::vector<double> perPoint = runArmed(nullptr);
        const std::uint64_t throwHits = faults.hitCount("eval_throw");
        const std::uint64_t nanHits = faults.hitCount("eval_nan");
        const std::vector<double> batched = runArmed(&pool);
        EXPECT_EQ(faults.hitCount("eval_throw"), throwHits) << c.name;
        EXPECT_EQ(faults.hitCount("eval_nan"), nanHits) << c.name;
        faults.reset();

        EXPECT_GT(throwHits + nanHits, 0u) << c.name;
        EXPECT_EQ(batched, perPoint) << c.name;
        for (std::size_t i = 0; i < xs.size(); ++i) {
            if (i == c.invalidAt)
                EXPECT_EQ(perPoint[i], invalidScore) << c.name;
            else
                EXPECT_EQ(perPoint[i], clean[i])
                    << c.name << ", point " << i;
        }
    }
}

TEST(ParallelEquivalence, BatchPhaseFailureFallsBackPerPoint)
{
    // A fault killing the batch pipeline mid-flight must degrade to
    // the per-point path, not surface to the driver: the caller sees
    // the same values, one batch just costs a retry.
    FaultInjector::instance().reset();
    Evaluator evaluator;
    ThreadPool pool(4);
    InputSpaceObjective obj(evaluator, smallWorkload());
    const auto xs = randomPoints(32, obj.dim(), 29);
    const std::vector<double> want = obj.evaluateBatch(xs, nullptr);

    // batch_chunk fires once per claimed chunk of unique configs (32
    // points on 4 workers are 4 chunks of 8): kill the first claim,
    // and later ones while earlier chunks are already scored.
    for (const std::uint64_t nth : {1u, 2u, 3u}) {
        FaultInjector::instance().arm("batch_chunk", nth);
        const std::vector<double> got = obj.evaluateBatch(xs, &pool);
        EXPECT_GE(FaultInjector::instance().hitCount("batch_chunk"),
                  nth);
        EXPECT_EQ(got, want) << "fault at hit " << nth;
    }
    FaultInjector::instance().reset();
}

} // namespace
} // namespace vaesa
