/**
 * @file
 * Corruption matrix: every binary format must turn arbitrary one-byte
 * flips and truncation at any offset into a structured LoadError --
 * never a crash, never a silently-wrong load.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "../common/temp_path.hh"
#include "util/atomic_io.hh"
#include "vaesa/checkpoint.hh"
#include "vaesa/serialize.hh"

namespace vaesa {
namespace {

/** Smallest framework worth serializing (untrained is fine). */
std::unique_ptr<VaesaFramework>
tinyFramework()
{
    FrameworkOptions options;
    options.vae.hiddenDims = {6};
    options.vae.latentDim = 2;
    options.predictorHidden = {4};
    Normalizer hw;
    hw.setBounds(std::vector<double>(6, 0.0),
                 std::vector<double>(6, 1.0));
    Normalizer layer;
    layer.setBounds(std::vector<double>(numLayerFeatures, 0.0),
                    std::vector<double>(numLayerFeatures, 1.0));
    Normalizer lat;
    lat.setBounds({0.0}, {1.0});
    Normalizer en;
    en.setBounds({0.0}, {1.0});
    return std::make_unique<VaesaFramework>(options, /*seed=*/11, hw,
                                            layer, lat, en);
}

class CorruptionTest : public ::testing::Test
{
  protected:
    std::string
    tempPath()
    {
        return testing::uniqueTempPath("vaesa_corrupt", ".bin");
    }

    void
    TearDown() override
    {
        std::remove(tempPath().c_str());
        std::remove(previousCheckpointPath(tempPath()).c_str());
    }

    /** Write raw bytes without any framing (to plant corruption). */
    void
    writeRaw(const std::string &bytes)
    {
        std::FILE *f = std::fopen(tempPath().c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);
    }

    std::string
    savedBytes()
    {
        auto bytes = readFileBytes(tempPath());
        EXPECT_TRUE(bytes.ok());
        return bytes.value();
    }
};

TEST_F(CorruptionTest, EveryByteFlipInFrameworkSnapshotIsDetected)
{
    auto fw = tinyFramework();
    ASSERT_FALSE(saveFramework(tempPath(), *fw));
    const std::string good = savedBytes();

    int undetected = 0;
    for (std::size_t i = 0; i < good.size(); ++i) {
        std::string bad = good;
        bad[i] = static_cast<char>(bad[i] ^ 0xFF);
        writeRaw(bad);
        // No .prev exists, so a detected corruption surfaces as an
        // error rather than a silent fallback.
        if (loadFramework(tempPath()).ok())
            ++undetected;
    }
    EXPECT_EQ(undetected, 0) << "of " << good.size() << " offsets";
}

TEST_F(CorruptionTest, EveryTruncationOfFrameworkSnapshotIsDetected)
{
    auto fw = tinyFramework();
    ASSERT_FALSE(saveFramework(tempPath(), *fw));
    const std::string good = savedBytes();

    // Every prefix, including the empty file.
    for (std::size_t len = 0; len < good.size(); ++len) {
        writeRaw(good.substr(0, len));
        auto loaded = loadFramework(tempPath());
        ASSERT_FALSE(loaded.ok()) << "truncated to " << len;
    }
}

TEST_F(CorruptionTest, TrailingGarbageIsDetected)
{
    auto fw = tinyFramework();
    ASSERT_FALSE(saveFramework(tempPath(), *fw));
    writeRaw(savedBytes() + "extra");
    auto loaded = loadFramework(tempPath());
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().kind, LoadError::Kind::Malformed);
}

TEST_F(CorruptionTest, CorruptCheckpointNeverPoisonsTheModel)
{
    // A checkpoint whose both copies are corrupt must leave the
    // in-memory model exactly as it was before the load attempt.
    auto fw = tinyFramework();
    nn::Adam optimizer(fw->parameters(), 1e-3);
    TrainCheckpoint ckpt;
    ckpt.epochsDone = 2;
    ckpt.rng = Rng(5).state();
    ASSERT_FALSE(saveTrainCheckpoint(tempPath(), ckpt, optimizer));
    const std::string good = savedBytes();

    const Matrix before = fw->parameters()[0]->value;
    std::string bad = good;
    bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 1);
    writeRaw(bad);
    auto loaded = loadTrainCheckpoint(tempPath(), optimizer);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(before == fw->parameters()[0]->value);
}

TEST_F(CorruptionTest, CheckpointRestoresAdamMomentsAndStep)
{
    // A fresh optimizer that loads the checkpoint of one that took
    // three steps must take the same fourth step bit for bit: the
    // parameters, both moments and the step counter (which drives
    // the bias correction) all come back.
    auto trained = tinyFramework();
    auto resumed = tinyFramework();
    nn::Adam run(trained->parameters(), 1e-2);
    nn::Adam restored(resumed->parameters(), 1e-2);
    const auto step = [](nn::Adam &optimizer, double grad) {
        for (nn::Parameter *p : optimizer.params())
            p->grad.fill(grad);
        optimizer.step();
    };
    for (const double grad : {0.5, -1.0, 2.0})
        step(run, grad);
    ASSERT_FALSE(saveTrainCheckpoint(tempPath(), TrainCheckpoint{}, run));
    ASSERT_TRUE(loadTrainCheckpoint(tempPath(), restored).ok());

    step(run, 0.25);
    step(restored, 0.25);
    for (std::size_t i = 0; i < run.params().size(); ++i)
        EXPECT_TRUE(run.params()[i]->value ==
                    restored.params()[i]->value) << "parameter " << i;
}

} // namespace
} // namespace vaesa
