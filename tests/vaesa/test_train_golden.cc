/**
 * @file
 * Golden regression test for training: the default model (VAE hidden
 * {128, 64}, latent 4, predictor hidden {64, 64}, batch 64, so every
 * one of its 13 Linear layers runs at its production shape) takes
 * goldenSteps Trainer steps on a fixed synthetic dataset, and the
 * four loss terms of every step plus a digest of every parameter
 * bit afterwards are compared with a checked-in file as raw IEEE-754
 * bits. The GEMM kernels, the activations, the losses, the
 * reparameterization and Adam all feed these bits, so a change to
 * any of them that moves a single bit of a trained model fails here.
 *
 * The dataset is drawn from Rng alone (no cost model), so the cost
 * model's own goldens and this one fail independently.
 *
 * To regenerate after an INTENDED change to the training numerics:
 *   VAESA_UPDATE_GOLDEN=1 ./build/tests/test_vaesa \
 *       --gtest_filter='TrainGoldenTrace.*'
 * then commit the rewritten tests/vaesa/golden_train_trace.txt.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "util/rng.hh"
#include "vaesa/framework.hh"
#include "vaesa/trainer.hh"
#include "workload/layer.hh"

namespace vaesa {
namespace {

constexpr std::size_t goldenSteps = 24;
constexpr std::size_t goldenRows = 256;

std::string
hexBits(std::uint64_t bits)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(bits));
    return buf;
}

std::string
hexBits(double v)
{
    return hexBits(std::bit_cast<std::uint64_t>(v));
}

/** FNV-1a over the bits of every value of @p params, in order. */
std::uint64_t
parameterDigest(const std::vector<nn::Parameter *> &params)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const nn::Parameter *p : params) {
        for (std::size_t i = 0; i < p->value.size(); ++i) {
            std::uint64_t bits =
                std::bit_cast<std::uint64_t>(p->value.data()[i]);
            for (int byte = 0; byte < 8; ++byte) {
                h ^= bits & 0xff;
                h *= 0x100000001b3ull;
                bits >>= 8;
            }
        }
    }
    return h;
}

/**
 * Fixed synthetic dataset: hardware and layer features in [0, 1),
 * labels smooth functions of them (so the predictor heads have
 * something to fit).
 */
struct GoldenData
{
    Matrix hw{goldenRows, 6};
    Matrix layer{goldenRows, numLayerFeatures};
    Matrix latency{goldenRows, 1};
    Matrix energy{goldenRows, 1};

    GoldenData()
    {
        Rng rng(2025);
        hw.randomUniform(rng, 0.0, 1.0);
        layer.randomUniform(rng, 0.0, 1.0);
        for (std::size_t r = 0; r < goldenRows; ++r) {
            double lat = 0.0;
            double en = 0.0;
            for (std::size_t c = 0; c < hw.cols(); ++c) {
                lat += hw(r, c) * layer(r, c % layer.cols());
                en += (c % 2 == 0 ? 0.5 : -0.25) * hw(r, c);
            }
            latency(r, 0) = lat;
            energy(r, 0) = en + 0.1 * layer(r, 0);
        }
    }
};

/** Rows [begin, begin + count) of @p src. */
Matrix
rowSlice(const Matrix &src, std::size_t begin, std::size_t count)
{
    Matrix out(count, src.cols());
    std::copy(src.data() + begin * src.cols(),
              src.data() + (begin + count) * src.cols(), out.data());
    return out;
}

/** Train goldenSteps minibatch steps and render the trace. */
std::vector<std::string>
renderTrace()
{
    const GoldenData data;
    const FrameworkOptions options;
    const std::size_t batch = options.train.batchSize;

    // The models VaesaFramework builds, in its order, from one
    // seeded stream.
    Rng rng(7);
    Vae vae(options.vae, rng);
    PredictorOptions pred;
    pred.designDim = options.vae.latentDim;
    pred.layerDim = numLayerFeatures;
    pred.hiddenDims = options.predictorHidden;
    pred.leakySlope = options.vae.leakySlope;
    Predictor latency(pred, rng, "latency");
    Predictor energy(pred, rng, "energy");
    Trainer trainer(vae, latency, energy, options.train);

    std::vector<std::string> lines;
    for (std::size_t step = 0; step < goldenSteps; ++step) {
        // One runEpoch over one batch of rows is one optimizer step.
        const std::size_t begin = (step * batch) % goldenRows;
        const EpochStats stats = trainer.runEpoch(
            rowSlice(data.hw, begin, batch),
            rowSlice(data.layer, begin, batch),
            rowSlice(data.latency, begin, batch),
            rowSlice(data.energy, begin, batch), rng, true);
        lines.push_back("step " + std::to_string(step) + " " +
                        hexBits(stats.reconLoss) + " " +
                        hexBits(stats.kldLoss) + " " +
                        hexBits(stats.latencyLoss) + " " +
                        hexBits(stats.energyLoss));
    }
    std::vector<nn::Parameter *> params = vae.parameters();
    for (nn::Parameter *p : latency.parameters())
        params.push_back(p);
    for (nn::Parameter *p : energy.parameters())
        params.push_back(p);
    lines.push_back("params " + std::to_string(params.size()) + " " +
                    hexBits(parameterDigest(params)));
    lines.push_back("rng " + hexBits(rng.next()));
    return lines;
}

std::string
goldenPath()
{
    return std::string(VAESA_TEST_DATA_DIR) +
           "/vaesa/golden_train_trace.txt";
}

TEST(TrainGoldenTrace, ReplaysBitForBit)
{
    const std::vector<std::string> lines = renderTrace();
    // Same process, same bits: the trace itself is deterministic.
    ASSERT_EQ(lines, renderTrace());

    if (const char *update = std::getenv("VAESA_UPDATE_GOLDEN");
        update && *update && std::string(update) != "0") {
        std::ofstream out(goldenPath());
        ASSERT_TRUE(out) << "cannot write " << goldenPath();
        for (const std::string &line : lines)
            out << line << '\n';
        GTEST_SKIP() << "rewrote " << goldenPath();
    }

    std::ifstream in(goldenPath());
    ASSERT_TRUE(in) << "missing golden file " << goldenPath();
    std::vector<std::string> want;
    for (std::string line; std::getline(in, line);)
        want.push_back(line);
    ASSERT_EQ(lines.size(), want.size());
    for (std::size_t i = 0; i < lines.size(); ++i)
        ASSERT_EQ(lines[i], want[i]) << "first mismatch at line " << i;
}

} // namespace
} // namespace vaesa
