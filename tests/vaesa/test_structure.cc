/**
 * @file
 * Semantic tests of the paper's structural claims at miniature
 * scale: the predictors, trained jointly with the VAE (Eq. 2), give
 * the latent space performance structure that a vanilla VAE (Eq. 1
 * only) lacks; and setting the predictor weight to zero reduces the
 * joint objective to the vanilla one.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "fixtures.hh"
#include "studies/latent.hh"
#include "util/stats.hh"

namespace vaesa {
namespace {

/** Train a 2-D framework with a given predictor weight. */
VaesaFramework
trainWith(double predictor_weight, std::uint64_t seed)
{
    FrameworkOptions options;
    options.vae.latentDim = 2;
    options.vae.hiddenDims = {48, 24};
    options.predictorHidden = {32};
    options.train.epochs = 10;
    options.train.predictorWeight = predictor_weight;
    return VaesaFramework(testing::sharedDataset(), options, seed);
}

/**
 * How much of the samples' log-EDP variance latent position
 * explains, via correlation of the best linear combination proxy:
 * max |corr| over the two latent axes.
 */
double
latentEdpCorrelation(VaesaFramework &fw)
{
    const Dataset &data = testing::sharedDataset();
    const Matrix mu = fw.vae().encodeMean(data.hwFeatures());
    std::vector<double> z1, z2, log_edp;
    for (std::size_t i = 0; i < data.size(); ++i) {
        z1.push_back(mu(i, 0));
        z2.push_back(mu(i, 1));
        log_edp.push_back(data.samples()[i].logLatency +
                          data.samples()[i].logEnergy);
    }
    return std::max(std::fabs(correlation(z1, log_edp)),
                    std::fabs(correlation(z2, log_edp)));
}

TEST(LatentStructure, JointTrainingAddsPerformanceSemantics)
{
    // Figure 4's premise: with the predictor losses attached, the
    // encoder arranges designs by performance. Without them (vanilla
    // VAE), the latent axes only encode reconstruction structure.
    VaesaFramework joint = trainWith(1.0, 21);
    VaesaFramework vanilla = trainWith(0.0, 21);
    const double corr_joint = latentEdpCorrelation(joint);
    const double corr_vanilla = latentEdpCorrelation(vanilla);
    // At this miniature scale (1500 samples, 10 epochs) the linear
    // axis correlation is modest; the discriminating claim is the
    // *relative* structure the predictor losses add.
    EXPECT_GT(corr_joint, corr_vanilla);
    EXPECT_GT(corr_joint, 0.1);
}

TEST(LatentStructure, ZeroPredictorWeightFreezesPredictorLoss)
{
    // With predictorWeight = 0 the predictor heads get no gradient
    // through the optimizer... they still receive Adam updates from
    // zero gradients (none), so their loss must stay roughly at its
    // initial value while the recon loss still drops.
    VaesaFramework vanilla = trainWith(0.0, 22);
    const auto &history = vanilla.history();
    EXPECT_LT(history.back().reconLoss,
              history.front().reconLoss * 0.8);
    // Predictor MSE does not improve by more than noise.
    EXPECT_GT(history.back().latencyLoss,
              history.front().latencyLoss * 0.5);
}

TEST(LatentStructure, PredictorsRankUnseenLayersSensibly)
{
    // The predictors condition on layer features: for a fixed z, a
    // much larger layer must be predicted slower and more energy
    // hungry than a much smaller one.
    VaesaFramework &fw = testing::sharedFramework();
    LayerShape big;
    big.name = "probe.big";
    big.r = 3;
    big.s = 3;
    big.p = 56;
    big.q = 56;
    big.c = 256;
    big.k = 256;
    LayerShape small;
    small.name = "probe.small";
    small.p = 7;
    small.q = 7;
    small.c = 16;
    small.k = 16;

    const auto feats_big = fw.normalizedLayerFeatures(big);
    const auto feats_small = fw.normalizedLayerFeatures(small);
    std::vector<double> z(fw.latentDim(), 0.0);
    EXPECT_GT(predictedLatency(fw, z, feats_big),
              predictedLatency(fw, z, feats_small));
    EXPECT_GT(predictedEnergy(fw, z, feats_big),
              predictedEnergy(fw, z, feats_small));
}

TEST(LatentStructure, KldKeepsLatentSpaceContinuous)
{
    // Reconstructibility under perturbation (the "continuous"
    // property BO relies on): decoding z and z + small delta gives
    // configurations whose log2 features differ by a bounded amount.
    VaesaFramework &fw = testing::sharedFramework();
    Rng rng(23);
    double worst_jump = 0.0;
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<double> z(fw.latentDim());
        for (double &v : z)
            v = rng.normal();
        std::vector<double> z2 = z;
        for (double &v : z2)
            v += rng.normal(0.0, 0.05);
        const auto f1 =
            designSpace().toFeatures(fw.decodeLatent(z));
        const auto f2 =
            designSpace().toFeatures(fw.decodeLatent(z2));
        for (int p = 0; p < numHwParams; ++p)
            worst_jump =
                std::max(worst_jump, std::fabs(f1[p] - f2[p]));
    }
    // A 0.05-sigma step should never teleport a parameter by more
    // than a few octaves.
    EXPECT_LT(worst_jump, 4.0);
}

} // namespace
} // namespace vaesa
