/**
 * @file
 * Multi-workload co-design layer: traffic-mix parsing, the input-space
 * objective over a mix checked against per-workload roll-ups, and the
 * bit-identity of its batch path — plus the counted workload
 * evaluation overloads it is built on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "../common/temp_path.hh"
#include "dse/objective.hh"
#include "dse/random_search.hh"
#include "sched/parallel_evaluator.hh"
#include "util/thread_pool.hh"
#include "workload/zoo.hh"

namespace vaesa {
namespace {

/** A tiny counted workload (layer 0 runs 3x, layer 1 once). */
Workload
toyCounted()
{
    std::vector<LayerShape> seq;
    for (int rep = 0; rep < 3; ++rep)
        seq.push_back(alexNetLayers()[2]);
    seq.push_back(alexNetLayers()[6]);
    return countedWorkload("toy", seq);
}

AcceleratorConfig
someConfig(std::uint64_t seed)
{
    Rng rng(seed);
    return designSpace().randomConfig(rng);
}

TEST(CountedEval, EmptyCountsMatchLayerVectorExactly)
{
    Evaluator ev;
    const Workload w{"paper", alexNetLayers(), {}};
    for (std::uint64_t seed : {3u, 11u, 29u}) {
        const AcceleratorConfig config = someConfig(seed);
        const EvalResult a = ev.evaluateWorkload(config, w.layers);
        const EvalResult b = ev.evaluateWorkload(config, w);
        EXPECT_EQ(a.valid, b.valid);
        EXPECT_EQ(a.latencyCycles, b.latencyCycles);
        EXPECT_EQ(a.energyPj, b.energyPj);
        EXPECT_EQ(a.edp, b.edp);
    }
}

TEST(CountedEval, CountsWeightTheRollUp)
{
    Evaluator ev;
    const Workload w = toyCounted();
    ASSERT_EQ(w.layers.size(), 2u);
    const AcceleratorConfig config = someConfig(5);
    const EvalResult counted = ev.evaluateWorkload(config, w);
    const EvalResult l0 = ev.evaluateLayer(config, w.layers[0]);
    const EvalResult l1 = ev.evaluateLayer(config, w.layers[1]);
    ASSERT_TRUE(counted.valid);
    ASSERT_TRUE(l0.valid && l1.valid);
    EXPECT_EQ(counted.latencyCycles,
              3.0 * l0.latencyCycles + 1.0 * l1.latencyCycles);
    EXPECT_EQ(counted.energyPj,
              3.0 * l0.energyPj + 1.0 * l1.energyPj);
    EXPECT_EQ(counted.edp,
              counted.latencyCycles * counted.energyPj);
}

TEST(CountedEval, BatchMatchesSerialCountedRollUp)
{
    Evaluator ev;
    ThreadPool pool(4);
    const Workload w = toyCounted();
    std::vector<AcceleratorConfig> configs;
    Rng rng(17);
    for (int i = 0; i < 24; ++i)
        configs.push_back(designSpace().randomConfig(rng));
    // Exact duplicates exercise the dedup path.
    configs.push_back(configs[0]);
    configs.push_back(configs[5]);

    const std::vector<EvalResult> batch =
        evaluateConfigBatch(ev, configs, w, pool);
    ASSERT_EQ(batch.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const EvalResult serial =
            ev.evaluateWorkload(configs[i], w);
        EXPECT_EQ(batch[i].valid, serial.valid) << i;
        EXPECT_EQ(batch[i].latencyCycles, serial.latencyCycles)
            << i;
        EXPECT_EQ(batch[i].energyPj, serial.energyPj) << i;
        EXPECT_EQ(batch[i].edp, serial.edp) << i;
    }
}

TEST(TrafficMix, MakeRejectsBadInput)
{
    EXPECT_FALSE(makeTrafficMix({}).ok());
    EXPECT_FALSE(makeTrafficMix({{"no_such_net", 1.0}}).ok());
    EXPECT_FALSE(makeTrafficMix({{"alexnet", 0.0}}).ok());
    EXPECT_FALSE(makeTrafficMix({{"alexnet", -2.0}}).ok());
    EXPECT_FALSE(
        makeTrafficMix(
            {{"alexnet", std::numeric_limits<double>::infinity()}})
            .ok());
    EXPECT_FALSE(
        makeTrafficMix({{"alexnet", 1.0}, {"alexnet", 2.0}}).ok());
}

TEST(TrafficMix, MakeResolvesBuiltInAndZooNames)
{
    const auto mix =
        makeTrafficMix({{"resnet50", 2.0}, {"bert_base", 1.0}});
    ASSERT_TRUE(mix.ok());
    ASSERT_EQ(mix.value().entries.size(), 2u);
    EXPECT_EQ(mix.value().entries[0].workload.name, "resnet50");
    EXPECT_EQ(mix.value().entries[0].weight, 2.0);
    EXPECT_EQ(mix.value().entries[1].workload.name, "bert_base");
    EXPECT_TRUE(mix.value().entries[1].workload.hasCounts());
}

class MixFileTest : public ::testing::Test
{
  protected:
    std::string
    tempPath()
    {
        return testing::uniqueTempPath("vaesa_mix", ".txt");
    }

    void TearDown() override { std::remove(tempPath().c_str()); }
};

TEST_F(MixFileTest, ParsesCommentsBlanksAndEntries)
{
    {
        std::ofstream out(tempPath());
        out << "# serving traffic, relative rates\n";
        out << "\n";
        out << "bert_base 3.5\n";
        out << "mobilenet_v2 1 # edge offload\n";
    }
    const auto mix = parseTrafficMixFile(tempPath());
    ASSERT_TRUE(mix.ok()) << mix.error().describe();
    ASSERT_EQ(mix.value().entries.size(), 2u);
    EXPECT_EQ(mix.value().entries[0].workload.name, "bert_base");
    EXPECT_EQ(mix.value().entries[0].weight, 3.5);
    EXPECT_EQ(mix.value().entries[1].weight, 1.0);
}

TEST_F(MixFileTest, MalformedLinesNameFileAndLine)
{
    {
        std::ofstream out(tempPath());
        out << "bert_base 1.0\n";
        out << "mobilenet_v2\n"; // missing weight
    }
    const auto mix = parseTrafficMixFile(tempPath());
    ASSERT_FALSE(mix.ok());
    EXPECT_EQ(mix.error().kind, LoadError::Kind::Malformed);
    EXPECT_EQ(mix.error().file, tempPath());
    EXPECT_EQ(mix.error().line, 2u);
}

TEST_F(MixFileTest, UnknownWorkloadIsAStructuredError)
{
    {
        std::ofstream out(tempPath());
        out << "not_a_network 1.0\n";
    }
    const auto mix = parseTrafficMixFile(tempPath());
    ASSERT_FALSE(mix.ok());
    EXPECT_EQ(mix.error().kind, LoadError::Kind::Malformed);
    EXPECT_EQ(mix.error().file, tempPath());
    EXPECT_NE(mix.error().message.find("unknown workload"),
              std::string::npos);
}

TEST_F(MixFileTest, MissingFileReportsOpenFailed)
{
    const auto mix = parseTrafficMixFile(::testing::TempDir() +
                                         "/no_mix_here.txt");
    ASSERT_FALSE(mix.ok());
    EXPECT_EQ(mix.error().kind, LoadError::Kind::OpenFailed);
}

TEST(MixLayerPool, MergesSharedShapesAndWeightsByOccurrence)
{
    TrafficMix mix;
    mix.entries.push_back({toyCounted(), 2.0});
    // Second entry shares toyCounted's layer 0 shape (alexnet conv3)
    // with count 1 and weight 5.
    mix.entries.push_back(
        {countedWorkload("other", {alexNetLayers()[2]}), 5.0});

    std::vector<double> weights;
    const std::vector<LayerShape> pool = mixLayerPool(mix, &weights);
    ASSERT_EQ(pool.size(), 2u);
    ASSERT_EQ(weights.size(), 2u);
    // conv3: 2.0 * 3 occurrences + 5.0 * 1 occurrence.
    EXPECT_TRUE(pool[0].sameShape(alexNetLayers()[2]));
    EXPECT_EQ(weights[0], 2.0 * 3 + 5.0 * 1);
    EXPECT_EQ(weights[1], 2.0 * 1);
}

TEST(MultiWorkload, EvaluateIsTheWeightedSumOfWorkloadMetrics)
{
    Evaluator ev;
    const auto mix =
        makeTrafficMix({{"alexnet", 2.0}, {"deepbench", 0.5}});
    ASSERT_TRUE(mix.ok());
    InputSpaceObjective objective(ev, mix.value());
    EXPECT_EQ(objective.dim(),
              static_cast<std::size_t>(numHwParams));

    const std::vector<double> x(numHwParams, 0.75);
    const double score = objective.evaluate(x);
    const AcceleratorConfig config = objective.decode(x);
    const EvalResult a =
        ev.evaluateWorkload(config, workloadByName("alexnet"));
    const EvalResult b =
        ev.evaluateWorkload(config, workloadByName("deepbench"));
    ASSERT_TRUE(a.valid && b.valid);
    EXPECT_EQ(score, 2.0 * a.edp + 0.5 * b.edp);
}

TEST(MultiWorkload, OneEntryMixScoresAsItsWorkload)
{
    // A single workload is a one-entry mix of weight 1.0, and
    // 0.0 + 1.0 * m == m: all three forms score bit for bit alike.
    Evaluator ev;
    const Workload bert = workloadByName("bert_base");
    const auto mix = makeTrafficMix({{"bert_base", 1.0}});
    ASSERT_TRUE(mix.ok());
    InputSpaceObjective fromMix(ev, mix.value(), Metric::Latency);
    InputSpaceObjective fromWorkload(ev, bert, Metric::Latency);
    Rng rng(31);
    for (int i = 0; i < 8; ++i) {
        std::vector<double> x(numHwParams);
        for (double &v : x)
            v = rng.uniform();
        const double want = metricValue(
            ev.evaluateWorkload(fromMix.decode(x), bert), Metric::Latency);
        EXPECT_EQ(fromMix.evaluate(x), want) << i;
        EXPECT_EQ(fromWorkload.evaluate(x), want) << i;
    }
}

TEST(MultiWorkload, BatchPathIsBitIdenticalToSerial)
{
    Evaluator ev;
    ThreadPool pool(4);
    const auto mix =
        makeTrafficMix({{"alexnet", 1.0}, {"dlrm", 3.0}});
    ASSERT_TRUE(mix.ok());

    std::vector<std::vector<double>> xs;
    Rng rng(23);
    for (int i = 0; i < 20; ++i) {
        std::vector<double> x(numHwParams);
        for (double &v : x)
            v = rng.uniform();
        xs.push_back(x);
    }

    InputSpaceObjective serialObj(ev, mix.value());
    std::vector<double> serial;
    for (const auto &x : xs)
        serial.push_back(serialObj.evaluate(x));

    InputSpaceObjective batchObj(ev, mix.value());
    const std::vector<double> batched =
        batchObj.evaluateBatch(xs, &pool);
    ASSERT_EQ(batched.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(batched[i], serial[i]) << i;
}

TEST(MultiWorkload, SearchRunsOnAZooMix)
{
    Evaluator ev;
    ThreadPool pool(4);
    const auto mix =
        makeTrafficMix({{"mobilenet_v2", 1.0}, {"dlrm", 1.0}});
    ASSERT_TRUE(mix.ok());
    InputSpaceObjective objective(ev, mix.value());
    Rng rng(7);
    const SearchTrace trace =
        RandomSearch().run(objective, 24, rng, &pool);
    EXPECT_EQ(trace.points.size(), 24u);
    EXPECT_TRUE(std::isfinite(trace.best()));
    EXPECT_GT(trace.best(), 0.0);
}

TEST(MultiWorkload, RejectsEmptyMix)
{
    Evaluator ev;
    EXPECT_DEATH(InputSpaceObjective(ev, TrafficMix{}), "non-empty mix");
}

} // namespace
} // namespace vaesa
