/**
 * @file
 * Zero-allocation contract of the training step loop, the latent
 * search hot path and the cached ScoreConfig path: after a warm-up
 * pass has grown every workspace arena and scratch buffer to its
 * steady-state capacity, further iterations must not touch the heap
 * at all.
 *
 * The check counts every global operator new in this binary, which is
 * why the suite lives in its own test executable rather than inside
 * test_vaesa.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "sched/caching_evaluator.hh"
#include "util/rng.hh"
#include "vaesa/framework.hh"
#include "vaesa/normalizer.hh"
#include "vaesa/predictor.hh"
#include "vaesa/trainer.hh"
#include "vaesa/vae.hh"
#include "workload/networks.hh"

namespace {

std::atomic<std::uint64_t> g_news{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace vaesa {
namespace {

std::uint64_t
allocCount()
{
    return g_news.load(std::memory_order_relaxed);
}

TEST(AllocFree, TrainerStepLoopIsAllocationFreeAfterWarmup)
{
    Rng rng(31);
    VaeOptions vo;
    vo.inputDim = 6;
    vo.hiddenDims = {32, 16};
    vo.latentDim = 4;
    Vae vae(vo, rng);

    PredictorOptions po;
    po.designDim = 4;
    po.layerDim = 8;
    po.hiddenDims = {24, 24};
    Predictor latency(po, rng, "latency");
    Predictor energy(po, rng, "energy");

    TrainOptions to;
    to.batchSize = 32;
    Trainer trainer(vae, latency, energy, to);

    const std::size_t n = 96; // three batches, no ragged tail
    Matrix hw(n, 6);
    Matrix layer(n, 8);
    Matrix lat(n, 1);
    Matrix en(n, 1);
    hw.randomUniform(rng, 0.05, 0.95);
    layer.randomUniform(rng, 0.05, 0.95);
    lat.randomUniform(rng, 0.1, 0.9);
    en.randomUniform(rng, 0.1, 0.9);

    for (int i = 0; i < 3; ++i)
        trainer.runEpoch(hw, layer, lat, en, rng, true);

    const std::uint64_t before = allocCount();
    EpochStats stats;
    for (int i = 0; i < 3; ++i)
        stats = trainer.runEpoch(hw, layer, lat, en, rng, true);
    const std::uint64_t after = allocCount();

    EXPECT_TRUE(std::isfinite(stats.totalLoss));
    EXPECT_EQ(after - before, 0u);
}

TEST(AllocFree, RaggedTailBatchStaysAllocationFree)
{
    // A final short batch shrinks every buffer within capacity; the
    // next full batch must be able to grow back without reallocating.
    Rng rng(32);
    VaeOptions vo;
    vo.inputDim = 6;
    vo.hiddenDims = {16};
    vo.latentDim = 2;
    Vae vae(vo, rng);

    PredictorOptions po;
    po.designDim = 2;
    po.layerDim = 8;
    po.hiddenDims = {12};
    Predictor latency(po, rng, "latency");
    Predictor energy(po, rng, "energy");

    TrainOptions to;
    to.batchSize = 32;
    Trainer trainer(vae, latency, energy, to);

    const std::size_t n = 70; // 32 + 32 + 6
    Matrix hw(n, 6);
    Matrix layer(n, 8);
    Matrix lat(n, 1);
    Matrix en(n, 1);
    hw.randomUniform(rng, 0.05, 0.95);
    layer.randomUniform(rng, 0.05, 0.95);
    lat.randomUniform(rng, 0.1, 0.9);
    en.randomUniform(rng, 0.1, 0.9);

    for (int i = 0; i < 2; ++i)
        trainer.runEpoch(hw, layer, lat, en, rng, true);

    const std::uint64_t before = allocCount();
    for (int i = 0; i < 2; ++i)
        trainer.runEpoch(hw, layer, lat, en, rng, true);
    EXPECT_EQ(allocCount() - before, 0u);
}

TEST(AllocFree, PredictScoreAndDecodeAreAllocationFreeAfterWarmup)
{
    FrameworkOptions options;
    options.vae.inputDim = 6;
    options.vae.hiddenDims = {32, 16};
    options.vae.latentDim = 4;
    options.predictorHidden = {24, 24};

    Normalizer hw_norm;
    hw_norm.setBounds(std::vector<double>(6, 1.0),
                      std::vector<double>(6, 2.0));
    Normalizer layer_norm;
    layer_norm.setBounds(std::vector<double>(8, 1.0),
                         std::vector<double>(8, 2.0));
    Normalizer lat_norm;
    lat_norm.setBounds({1.0}, {2.0});
    Normalizer en_norm;
    en_norm.setBounds({1.0}, {2.0});

    VaesaFramework fw(options, 17, hw_norm, layer_norm, lat_norm,
                      en_norm);

    std::vector<double> z(4, 0.1);
    std::vector<double> feats(8, 0.5);
    std::vector<double> grad(4, 0.0);

    for (int i = 0; i < 3; ++i) {
        fw.predictScore(z, feats, &grad);
        fw.decodeLatent(z);
    }

    double acc = 0.0;
    const std::uint64_t before = allocCount();
    for (int i = 0; i < 50; ++i) {
        z[0] = -1.0 + 0.04 * i;
        acc += fw.predictScore(z, feats, &grad);
        acc += grad[0];
    }
    const std::uint64_t after_scores = allocCount();

    std::int64_t pes = 0;
    for (int i = 0; i < 50; ++i) {
        z[1] = -1.0 + 0.04 * i;
        pes += fw.decodeLatent(z).numPes;
    }
    const std::uint64_t after_decodes = allocCount();

    EXPECT_TRUE(std::isfinite(acc));
    EXPECT_GT(pes, 0);
    EXPECT_EQ(after_scores - before, 0u);
    EXPECT_EQ(after_decodes - after_scores, 0u);
}

TEST(AllocFree, WarmCachedScoreIsAllocationFree)
{
    // The serve path's ScoreConfig: once every (config, layer) of the
    // rows is cached, a call keys, probes and walks its row in
    // per-thread buffers and registry lookups alone.
    CachingEvaluator cache;
    const Workload resnet{"", resNet50Layers(), {}};
    Rng rng(33);
    std::vector<AcceleratorConfig> configs;
    for (int i = 0; i < 8; ++i)
        configs.push_back(designSpace().randomConfig(rng));
    for (int pass = 0; pass < 2; ++pass)
        for (const AcceleratorConfig &config : configs)
            cache.evaluateWorkload(config, resnet);
    const std::uint64_t misses = cache.misses();
    const std::uint64_t hits = cache.hits();

    double edp = 0.0;
    const std::uint64_t before = allocCount();
    for (int pass = 0; pass < 10; ++pass)
        for (const AcceleratorConfig &config : configs)
            edp += cache.evaluateWorkload(config, resnet).edp;
    const std::uint64_t after = allocCount();

    EXPECT_TRUE(std::isfinite(edp));
    EXPECT_EQ(after - before, 0u);
    EXPECT_EQ(cache.misses(), misses);
    EXPECT_GT(cache.hits(), hits);
}

} // namespace
} // namespace vaesa
