/** @file Unit tests for the adaptive (grow-and-fine-tune) BO flow. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "../vaesa/fixtures.hh"
#include "studies/adaptive.hh"

namespace vaesa {
namespace {

TEST(AdaptiveVaeBo, UsesExactBudgetAndGathersSamples)
{
    // Use a private framework copy (the flow mutates weights).
    FrameworkOptions options;
    options.vae.latentDim = 4;
    options.vae.hiddenDims = {32, 16};
    options.train.epochs = 6;
    VaesaFramework framework(testing::sharedDataset(), options, 3);

    AdaptiveBoOptions adaptive;
    adaptive.retrainInterval = 15;
    adaptive.minNewSamples = 10;
    adaptive.fineTuneEpochs = 2;
    AdaptiveVaeBo flow(framework, testing::sharedEvaluator(),
                       adaptive);

    Rng rng(81);
    const Workload alexnet = workloadByName("alexnet");
    const std::vector<LayerShape> &layers = alexnet.layers;
    const SearchTrace trace = flow.run(alexnet, 40, rng);
    EXPECT_EQ(trace.points.size(), 40u);
    // Valid decodes record one sample per layer.
    EXPECT_GE(flow.gathered().size(), layers.size());
    EXPECT_LE(flow.gathered().size(), 40 * layers.size());
    // 40 samples at interval 15 -> two interior fine-tunes.
    EXPECT_GE(flow.fineTuneCount(), 1u);
    EXPECT_LE(flow.fineTuneCount(), 2u);
    EXPECT_TRUE(std::isfinite(trace.best()));
}

TEST(AdaptiveVaeBo, GatheredSamplesMatchEvaluator)
{
    FrameworkOptions options;
    options.vae.latentDim = 4;
    options.vae.hiddenDims = {32, 16};
    options.train.epochs = 4;
    VaesaFramework framework(testing::sharedDataset(), options, 4);

    AdaptiveBoOptions adaptive;
    adaptive.retrainInterval = 100; // no fine-tune inside the run
    AdaptiveVaeBo flow(framework, testing::sharedEvaluator(),
                       adaptive);

    Rng rng(82);
    const Workload one{"alexnet_conv3", {alexNetLayers()[2]}, {}};
    const std::vector<LayerShape> &layers = one.layers;
    flow.run(one, 10, rng);
    ASSERT_FALSE(flow.gathered().empty());
    for (std::size_t i = 0; i < std::min<std::size_t>(
                                5, flow.gathered().size());
         ++i) {
        const DataSample &s = flow.gathered()[i];
        Evaluator fresh;
        const EvalResult r =
            fresh.evaluateLayer(s.config, layers[s.layerIndex]);
        ASSERT_TRUE(r.valid);
        EXPECT_NEAR(std::exp2(s.logLatency), r.latencyCycles,
                    1e-6 * r.latencyCycles);
        EXPECT_NEAR(std::exp2(s.logEnergy), r.energyPj,
                    1e-6 * r.energyPj);
    }
}

TEST(AdaptiveVaeBo, FineTuningChangesTheModel)
{
    FrameworkOptions options;
    options.vae.latentDim = 4;
    options.vae.hiddenDims = {32, 16};
    options.train.epochs = 4;
    VaesaFramework framework(testing::sharedDataset(), options, 5);

    const std::vector<double> probe(framework.latentDim(), 0.4);
    const auto feats = framework.normalizedLayerFeatures(
        alexNetLayers()[0]);
    const double before = framework.predictScore(probe, feats);

    AdaptiveBoOptions adaptive;
    adaptive.retrainInterval = 10;
    adaptive.minNewSamples = 5;
    adaptive.fineTuneEpochs = 2;
    AdaptiveVaeBo flow(framework, testing::sharedEvaluator(),
                       adaptive);
    Rng rng(83);
    flow.run(workloadByName("alexnet"), 25, rng);
    ASSERT_GE(flow.fineTuneCount(), 1u);
    EXPECT_NE(framework.predictScore(probe, feats), before);
}

TEST(AdaptiveVaeBo, EmptyWorkloadIsFatal)
{
    FrameworkOptions options;
    options.vae.latentDim = 4;
    options.vae.hiddenDims = {16};
    options.train.epochs = 1;
    VaesaFramework framework(testing::sharedDataset(), options, 6);
    AdaptiveVaeBo flow(framework, testing::sharedEvaluator(), {});
    Rng rng(84);
    EXPECT_DEATH(flow.run(Workload{}, 5, rng), "at least one layer");
}

TEST(AdaptiveVaeBo, ScoresCountedWorkloadAsTheLibraryRollUp)
{
    // bert_base repeats its unique layers: a trace value must be the
    // occurrence-weighted roll-up of its decoded design, bit for bit,
    // while the samples stay one per unique layer.
    FrameworkOptions options;
    options.vae.latentDim = 4;
    options.vae.hiddenDims = {32, 16};
    options.train.epochs = 4;
    VaesaFramework framework(testing::sharedDataset(), options, 7);

    AdaptiveBoOptions adaptive;
    adaptive.retrainInterval = 100; // no fine-tune: decodes are stable
    AdaptiveVaeBo flow(framework, testing::sharedEvaluator(),
                       adaptive);
    const Workload bert = workloadByName("bert_base");
    ASSERT_TRUE(bert.hasCounts());
    Rng rng(86);
    const SearchTrace trace = flow.run(bert, 12, rng);
    ASSERT_EQ(trace.points.size(), 12u);

    Evaluator fresh;
    std::size_t valid = 0;
    std::size_t recorded = 0;
    for (const auto &point : trace.points) {
        const AcceleratorConfig config =
            framework.decodeLatent(point.x);
        const EvalResult want = fresh.evaluateWorkload(config, bert);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(point.value),
                  std::bit_cast<std::uint64_t>(
                      metricValue(want, Metric::Edp)))
            << point.value << " vs " << want.edp;
        if (want.valid) {
            ++valid;
            recorded += bert.layers.size();
        }
    }
    EXPECT_GT(valid, 0u);
    // Every valid design records each unique layer once.
    EXPECT_GE(flow.gathered().size(), recorded);
    EXPECT_LE(flow.gathered().size(),
              trace.points.size() * bert.layers.size());
}

TEST(BayesOptContinueRun, WarmStartSkipsWarmup)
{
    // continueRun on a non-empty trace must not re-run warm-up
    // random sampling: all additional points come from acquisition.
    class CountingObjective : public Objective
    {
      public:
        std::size_t dim() const override { return 2; }
        std::vector<double> lowerBounds() const override
        {
            return {0.0, 0.0};
        }
        std::vector<double> upperBounds() const override
        {
            return {1.0, 1.0};
        }
        double
        evaluate(const std::vector<double> &x) override
        {
            return (x[0] - 0.5) * (x[0] - 0.5) + x[1];
        }
    };

    CountingObjective obj;
    BayesOpt bo;
    Rng rng(85);
    SearchTrace trace = bo.run(obj, 15, rng);
    ASSERT_EQ(trace.points.size(), 15u);
    bo.continueRun(obj, trace, 10, rng);
    EXPECT_EQ(trace.points.size(), 25u);
    // The continuation should keep improving or hold the incumbent.
    EXPECT_LE(trace.best(), trace.bestAfter(15));
}

} // namespace
} // namespace vaesa
