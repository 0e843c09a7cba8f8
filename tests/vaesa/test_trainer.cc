/** @file Unit tests for joint and standalone training. */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "fixtures.hh"
#include "util/contracts.hh"
#include "util/metrics.hh"
#include "vaesa/trainer.hh"

namespace vaesa {
namespace {

TEST(Trainer, JointTrainingReducesAllLosses)
{
    const Dataset &data = testing::sharedDataset();
    Rng rng(31);
    VaeOptions vae_opts;
    vae_opts.latentDim = 4;
    vae_opts.hiddenDims = {32, 16};
    Vae vae(vae_opts, rng);
    PredictorOptions pred_opts;
    pred_opts.designDim = 4;
    pred_opts.hiddenDims = {32};
    Predictor lat(pred_opts, rng, "latency");
    Predictor en(pred_opts, rng, "energy");

    TrainOptions train;
    train.epochs = 10;
    Trainer trainer(vae, lat, en, train);
    const auto history = trainer.train(data, rng);
    ASSERT_EQ(history.size(), 10u);
    EXPECT_LT(history.back().reconLoss,
              history.front().reconLoss);
    EXPECT_LT(history.back().latencyLoss,
              history.front().latencyLoss);
    EXPECT_LT(history.back().energyLoss,
              history.front().energyLoss);
    EXPECT_GT(history.back().kldLoss, 0.0);
}

TEST(Trainer, EvaluateDoesNotChangeParameters)
{
    const Dataset &data = testing::sharedDataset();
    Rng rng(32);
    VaeOptions vae_opts;
    vae_opts.latentDim = 2;
    vae_opts.hiddenDims = {16};
    Vae vae(vae_opts, rng);
    PredictorOptions pred_opts;
    pred_opts.designDim = 2;
    pred_opts.hiddenDims = {16};
    Predictor lat(pred_opts, rng, "latency");
    Predictor en(pred_opts, rng, "energy");

    TrainOptions train;
    Trainer trainer(vae, lat, en, train);

    std::vector<Matrix> before;
    for (nn::Parameter *p : vae.parameters())
        before.push_back(p->value);
    const EpochStats stats = trainer.runEpoch(
        data.hwFeatures(), data.layerFeatures(), data.latencyLabels(),
        data.energyLabels(), rng, false);
    EXPECT_GT(stats.totalLoss, 0.0);
    std::size_t i = 0;
    for (nn::Parameter *p : vae.parameters())
        EXPECT_TRUE(p->value == before[i++]);
}

TEST(Trainer, KldWeightShapesLatentSpread)
{
    // With a large alpha the encoder means collapse toward N(0, I);
    // with alpha = 0 they spread much further (Figure 9).
    const Dataset &data = testing::sharedDataset();

    auto spread_for_alpha = [&](double alpha) {
        Rng rng(33);
        VaeOptions vae_opts;
        vae_opts.latentDim = 2;
        vae_opts.hiddenDims = {32, 16};
        Vae vae(vae_opts, rng);
        PredictorOptions pred_opts;
        pred_opts.designDim = 2;
        pred_opts.hiddenDims = {32};
        Predictor lat(pred_opts, rng, "latency");
        Predictor en(pred_opts, rng, "energy");
        TrainOptions train;
        train.epochs = 8;
        train.kldWeight = alpha;
        Trainer(vae, lat, en, train).train(data, rng);
        const Matrix mu = vae.encodeMean(data.hwFeatures());
        double acc = 0.0;
        for (std::size_t r = 0; r < mu.rows(); ++r)
            for (std::size_t c = 0; c < mu.cols(); ++c)
                acc += mu(r, c) * mu(r, c);
        return acc / static_cast<double>(mu.rows());
    };

    const double spread_free = spread_for_alpha(0.0);
    const double spread_pinned = spread_for_alpha(0.1);
    EXPECT_LT(spread_pinned, spread_free);
}

TEST(Trainer, InjectedNanTripsFiniteContract)
{
    // A single NaN label must be rejected by the finite-loss contract
    // in the batch where it is first consumed, not propagate through
    // Adam into every parameter.
    if (!contractChecksActive())
        GTEST_SKIP() << "library compiled with VAESA_CHECKS=0";
    const Dataset &data = testing::sharedDataset();
    Matrix lat_labels = data.latencyLabels();
    lat_labels(0, 0) = std::nan("");

    Rng rng(37);
    VaeOptions vae_opts;
    vae_opts.latentDim = 2;
    vae_opts.hiddenDims = {16};
    Vae vae(vae_opts, rng);
    PredictorOptions pred_opts;
    pred_opts.designDim = 2;
    pred_opts.hiddenDims = {16};
    Predictor lat(pred_opts, rng, "latency");
    Predictor en(pred_opts, rng, "energy");
    TrainOptions train;
    train.epochs = 1;
    Trainer trainer(vae, lat, en, train);
    EXPECT_THROW(trainer.train(data.hwFeatures(),
                               data.layerFeatures(), lat_labels,
                               data.energyLabels(), rng),
                 ContractViolation);
}

TEST(Trainer, StageHistogramsAddUpToTheStep)
{
    // forward + loss + backward + adam cover a training step: what
    // they leave out (the row gather, the loss bookkeeping) must stay
    // under 10% of the wall time of the steps they split. One
    // preemption between two stage timers can push a single epoch
    // past that on a loaded host, so the bound applies to the
    // best-covered of up to three epochs; every epoch must still run
    // all its steps and never time more than its wall clock.
    const bool was_enabled = metrics::metricsEnabled();
    metrics::setMetricsEnabled(true);
    metrics::Histogram *stages[] = {
        &metrics::histogram("train.forward_ns"),
        &metrics::histogram("train.loss_ns"),
        &metrics::histogram("train.backward_ns"),
        &metrics::histogram("train.adam_ns"),
    };
    const auto stageSum = [&] {
        std::uint64_t sum = 0;
        for (const metrics::Histogram *h : stages)
            sum += h->sum();
        return sum;
    };

    const Dataset &data = testing::sharedDataset();
    Rng rng(33);
    const FrameworkOptions options;
    Vae vae(options.vae, rng);
    PredictorOptions pred_opts;
    pred_opts.designDim = options.vae.latentDim;
    pred_opts.hiddenDims = options.predictorHidden;
    Predictor lat(pred_opts, rng, "latency");
    Predictor en(pred_opts, rng, "energy");
    Trainer trainer(vae, lat, en, options.train);

    const std::size_t batch = options.train.batchSize;
    constexpr int maxEpochs = 3;
    double bestCoverage = 0.0;
    for (int epoch = 0; epoch < maxEpochs && bestCoverage < 0.9;
         ++epoch) {
        const std::uint64_t steps_before = stages[3]->count();
        const std::uint64_t stages_before = stageSum();
        const std::uint64_t t0 = metrics::monotonicNowNs();
        trainer.runEpoch(data.hwFeatures(), data.layerFeatures(),
                         data.latencyLabels(), data.energyLabels(),
                         rng, true);
        const std::uint64_t wall = metrics::monotonicNowNs() - t0;
        const std::uint64_t staged = stageSum() - stages_before;

        EXPECT_EQ(stages[3]->count() - steps_before,
                  (data.size() + batch - 1) / batch)
            << "epoch " << epoch;
        EXPECT_LE(staged, wall) << "epoch " << epoch;
        bestCoverage = std::max(
            bestCoverage,
            static_cast<double>(staged) / static_cast<double>(wall));
    }
    metrics::setMetricsEnabled(was_enabled);

    EXPECT_GE(bestCoverage, 0.9)
        << "the stages cover at best " << bestCoverage
        << " of an epoch's wall time";
}

TEST(Trainer, MismatchedPredictorWidthIsFatal)
{
    Rng rng(34);
    VaeOptions vae_opts;
    vae_opts.latentDim = 4;
    Vae vae(vae_opts, rng);
    PredictorOptions pred_opts;
    pred_opts.designDim = 3; // != latentDim
    Predictor lat(pred_opts, rng, "latency");
    Predictor en(pred_opts, rng, "energy");
    TrainOptions train;
    EXPECT_DEATH(Trainer(vae, lat, en, train),
                 "designDim must equal");
}

TEST(PredictorTrainer, FitsLabels)
{
    const Dataset &data = testing::sharedDataset();
    Rng rng(35);
    PredictorOptions pred_opts;
    pred_opts.designDim = numHwParams;
    pred_opts.hiddenDims = {48, 48};
    Predictor pred(pred_opts, rng, "gd.latency");
    TrainOptions train;
    train.epochs = 12;
    PredictorTrainer trainer(pred, train);
    const auto history =
        trainer.train(data.hwFeatures(), data.layerFeatures(),
                      data.latencyLabels(), rng);
    ASSERT_EQ(history.size(), 12u);
    EXPECT_LT(history.back(), history.front() * 0.5);
    EXPECT_LT(history.back(), 0.02);
}

TEST(PredictorTrainer, RowMismatchIsFatal)
{
    Rng rng(36);
    PredictorOptions pred_opts;
    pred_opts.designDim = 2;
    pred_opts.layerDim = 2;
    Predictor pred(pred_opts, rng, "t");
    TrainOptions train;
    PredictorTrainer trainer(pred, train);
    Matrix design(3, 2);
    Matrix feats(4, 2);
    Matrix labels(3, 1);
    EXPECT_DEATH(trainer.train(design, feats, labels, rng),
                 "inconsistent row counts");
}

} // namespace
} // namespace vaesa
