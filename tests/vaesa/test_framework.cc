/** @file Unit tests for the VaesaFramework facade. */

#include <gtest/gtest.h>

#include <cmath>

#include "fixtures.hh"
#include "nn/serialize.hh"

namespace vaesa {
namespace {

TEST(Framework, TrainingHistoryRecorded)
{
    VaesaFramework &fw = testing::sharedFramework();
    EXPECT_EQ(fw.history().size(), 12u);
    EXPECT_LT(fw.history().back().reconLoss,
              fw.history().front().reconLoss);
}

TEST(Framework, EncodeProducesLatentOfRightWidth)
{
    VaesaFramework &fw = testing::sharedFramework();
    const Dataset &data = testing::sharedDataset();
    const auto z = fw.encodeConfig(data.samples()[0].config);
    EXPECT_EQ(z.size(), fw.latentDim());
}

TEST(Framework, DecodeAlwaysYieldsLegalGridPoints)
{
    VaesaFramework &fw = testing::sharedFramework();
    Rng rng(41);
    for (int trial = 0; trial < 30; ++trial) {
        std::vector<double> z(fw.latentDim());
        for (double &v : z)
            v = rng.normal(0.0, 2.0);
        const AcceleratorConfig config = fw.decodeLatent(z);
        for (int p = 0; p < numHwParams; ++p) {
            const auto param = static_cast<HwParam>(p);
            EXPECT_EQ(designSpace().snapValue(param,
                                              config.value(param)),
                      config.value(param));
        }
    }
}

TEST(Framework, RoundTripStaysInGrid)
{
    // Encode-decode of a training config gives a legal config whose
    // features are close to the original after 12 epochs.
    VaesaFramework &fw = testing::sharedFramework();
    const Dataset &data = testing::sharedDataset();
    double worst = 0.0;
    for (std::size_t i = 0; i < 20; ++i) {
        const AcceleratorConfig original =
            data.samples()[i * 7].config;
        const AcceleratorConfig back =
            fw.decodeLatent(fw.encodeConfig(original));
        const auto f0 = designSpace().toFeatures(original);
        const auto f1 = designSpace().toFeatures(back);
        for (int p = 0; p < numHwParams; ++p)
            worst = std::max(worst, std::fabs(f0[p] - f1[p]));
    }
    // log2-domain error bounded by a few octaves even with a small
    // training budget; exactness is not expected from a lossy VAE.
    EXPECT_LT(worst, 8.0);
}

TEST(Framework, PredictScoreGradientMatchesFiniteDifferences)
{
    VaesaFramework &fw = testing::sharedFramework();
    const auto feats =
        fw.normalizedLayerFeatures(alexNetLayers()[1]);
    std::vector<double> z(fw.latentDim());
    Rng rng(42);
    for (double &v : z)
        v = rng.normal();

    std::vector<double> grad;
    fw.predictScore(z, feats, &grad);
    ASSERT_EQ(grad.size(), fw.latentDim());

    const double eps = 1e-6;
    for (std::size_t d = 0; d < z.size(); ++d) {
        std::vector<double> zp = z;
        zp[d] += eps;
        std::vector<double> zm = z;
        zm[d] -= eps;
        const double numeric = (fw.predictScore(zp, feats) -
                                fw.predictScore(zm, feats)) /
                               (2.0 * eps);
        EXPECT_NEAR(grad[d], numeric, 1e-5) << "dim " << d;
    }
}

TEST(Framework, PredictionCorrelatesWithLabels)
{
    // The predictor must rank training samples far better than
    // chance: check Spearman-like sign agreement on label pairs.
    VaesaFramework &fw = testing::sharedFramework();
    const Dataset &data = testing::sharedDataset();
    int agree = 0;
    int total = 0;
    Rng rng(43);
    for (int trial = 0; trial < 300; ++trial) {
        const std::size_t i = rng.index(data.size());
        const std::size_t j = rng.index(data.size());
        const double li = data.samples()[i].logLatency +
                          data.samples()[i].logEnergy;
        const double lj = data.samples()[j].logLatency +
                          data.samples()[j].logEnergy;
        if (std::fabs(li - lj) < 1.0)
            continue;
        const auto zi = fw.encodeConfig(data.samples()[i].config);
        const auto zj = fw.encodeConfig(data.samples()[j].config);
        const auto fi = data.layerFeatures().row(i);
        const auto fj = data.layerFeatures().row(j);
        const double pi = fw.predictScore(zi, fi);
        const double pj = fw.predictScore(zj, fj);
        agree += (pi < pj) == (li < lj);
        ++total;
    }
    ASSERT_GT(total, 50);
    EXPECT_GT(static_cast<double>(agree) / total, 0.75);
}

TEST(Framework, LatentRadiusCoversEncodings)
{
    VaesaFramework &fw = testing::sharedFramework();
    const Dataset &data = testing::sharedDataset();
    const double radius = fw.latentRadius(data);
    EXPECT_GT(radius, 0.0);
    // Most encodings fall inside the radius by construction.
    int inside = 0;
    for (std::size_t i = 0; i < 100; ++i) {
        const auto z =
            fw.encodeConfig(data.samples()[i * 3].config);
        bool in = true;
        for (double v : z)
            in &= std::fabs(v) <= radius;
        inside += in;
    }
    EXPECT_GT(inside, 90);
}

TEST(Framework, ParametersRoundTripThroughSerialization)
{
    VaesaFramework &fw = testing::sharedFramework();
    RecordWriter out(0x54455354, 1);
    nn::writeParameterRecords(out, fw.parameters());

    FrameworkOptions options;
    options.vae.latentDim = 4;
    options.vae.hiddenDims = {64, 32};
    options.predictorHidden = {48, 48};
    options.train.epochs = 1;
    VaesaFramework other(testing::sharedDataset(), options, 1);
    RecordReader in(out.bytes(), "memory");
    std::uint32_t version = 0;
    ASSERT_FALSE(in.readHeader(0x54455354, 1, 1, &version));
    ASSERT_FALSE(nn::readParameterRecords(in, other.parameters()));

    std::vector<double> z(fw.latentDim(), 0.3);
    const auto feats =
        fw.normalizedLayerFeatures(alexNetLayers()[0]);
    EXPECT_DOUBLE_EQ(fw.predictScore(z, feats),
                     other.predictScore(z, feats));
    EXPECT_EQ(fw.decodeLatent(z).describe(),
              other.decodeLatent(z).describe());
}

TEST(Framework, DecodeWrongWidthPanics)
{
    VaesaFramework &fw = testing::sharedFramework();
    EXPECT_DEATH(fw.decodeLatent({0.0}), "latent width");
}

TEST(FineTune, ImprovesOnNewData)
{
    // Fine-tuning on fresh samples must not blow up and should keep
    // or improve the predictor losses on that data.
    Evaluator &ev = testing::sharedEvaluator();
    Rng rng(4);
    std::vector<LayerShape> pool;
    for (const Workload &w : trainingWorkloads())
        pool.insert(pool.end(), w.layers.begin(), w.layers.end());
    const Dataset fresh =
        DatasetBuilder(ev, pool).build(400, rng);

    FrameworkOptions options;
    options.vae.latentDim = 4;
    options.vae.hiddenDims = {32, 16};
    options.train.epochs = 6;
    VaesaFramework framework(testing::sharedDataset(), options, 5);
    const std::size_t history_before = framework.history().size();

    const auto tuned = framework.fineTune(fresh, 6, 9);
    ASSERT_EQ(tuned.size(), 6u);
    EXPECT_EQ(framework.history().size(), history_before + 6);
    EXPECT_LE(tuned.back().totalLoss, tuned.front().totalLoss);
}

} // namespace
} // namespace vaesa
