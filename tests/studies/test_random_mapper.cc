/** @file Unit and property tests for the random-search mapper. */

#include <gtest/gtest.h>

#include <cmath>

#include "studies/random_mapper.hh"
#include "sched/scheduler.hh"
#include "workload/networks.hh"

namespace vaesa {
namespace {

AcceleratorConfig
midConfig()
{
    AcceleratorConfig c;
    c.numPes = 16;
    c.numMacs = 1024;
    c.accumBufBytes = 48 * 1024;
    c.weightBufBytes = 1 * 1024 * 1024;
    c.inputBufBytes = 64 * 1024;
    c.globalBufBytes = 128 * 1024;
    return c;
}

TEST(RandomMapper, SampledMappingsAreLegal)
{
    CostModel model;
    RandomMapper mapper;
    Rng rng(1);
    const LayerShape layer = resNet50Layers()[2];
    int legal = 0;
    for (int i = 0; i < 50; ++i) {
        const auto mapping =
            mapper.sampleMapping(midConfig(), layer, rng);
        if (!mapping)
            continue;
        std::string reason;
        EXPECT_TRUE(model.checkMapping(midConfig(), layer, *mapping,
                                       &reason))
            << reason;
        ++legal;
    }
    EXPECT_GT(legal, 40);
}

TEST(RandomMapper, SearchReturnsBestOfSamples)
{
    CostModel model;
    RandomMapper::Options options;
    options.samples = 100;
    RandomMapper mapper(model, options);
    Rng rng(2);
    const LayerShape layer = resNet50Layers()[2];
    const auto best = mapper.search(midConfig(), layer, rng);
    ASSERT_TRUE(best.has_value());
    const double best_edp =
        model.evaluate(midConfig(), layer, *best).edp();

    // Re-drawing the same 100 accepted mappings with the same seed,
    // none can beat the search result.
    Rng replay(2);
    std::size_t accepted = 0;
    while (accepted < options.samples) {
        const auto m = mapper.sampleMapping(midConfig(), layer,
                                            replay);
        if (!m)
            continue;
        ++accepted;
        const CostResult r = model.evaluate(midConfig(), layer, *m);
        if (r.valid) {
            EXPECT_GE(r.edp(), best_edp * (1.0 - 1e-12));
        }
    }
}

TEST(RandomMapper, RejectsImpossibleArchitecture)
{
    RandomMapper mapper;
    Rng rng(3);
    AcceleratorConfig bad = midConfig();
    bad.globalBufBytes = 2;
    EXPECT_FALSE(
        mapper.search(bad, alexNetLayers()[2], rng).has_value());
}

TEST(RandomMapper, OneShotSchedulerIsCompetitive)
{
    // The design premise of the CoSA substitution: the one-shot
    // mapping is within a small factor of a 200-sample random
    // mapping search (geomean over several layers).
    CostModel model;
    Scheduler scheduler(model);
    RandomMapper::Options options;
    options.samples = 200;
    RandomMapper mapper(model, options);
    Rng rng(4);

    double log_ratio = 0.0;
    int n = 0;
    for (const LayerShape &layer : alexNetLayers()) {
        const auto one_shot = scheduler.schedule(midConfig(), layer);
        const auto searched = mapper.search(midConfig(), layer, rng);
        ASSERT_TRUE(one_shot.has_value());
        ASSERT_TRUE(searched.has_value());
        const double edp_one =
            model.evaluate(midConfig(), layer, *one_shot).edp();
        const double edp_search =
            model.evaluate(midConfig(), layer, *searched).edp();
        log_ratio += std::log(edp_one / edp_search);
        ++n;
    }
    const double geomean_ratio = std::exp(log_ratio / n);
    // One-shot should be no worse than 2x the searched mapping on
    // geomean (it is usually better than the random search).
    EXPECT_LT(geomean_ratio, 2.0);
}

class RandomMapperFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomMapperFuzz, LegalAcrossRandomConfigs)
{
    CostModel model;
    RandomMapper mapper;
    Rng rng(GetParam());
    std::vector<LayerShape> pool = gdTestLayers();
    for (int trial = 0; trial < 20; ++trial) {
        const AcceleratorConfig arch =
            designSpace().randomConfig(rng);
        const LayerShape &layer = pool[rng.index(pool.size())];
        const auto mapping = mapper.sampleMapping(arch, layer, rng);
        if (!mapping)
            continue;
        std::string reason;
        EXPECT_TRUE(
            model.checkMapping(arch, layer, *mapping, &reason))
            << layer.describe() << " on " << arch.describe() << ": "
            << reason;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMapperFuzz,
                         ::testing::Range(10, 16));

} // namespace
} // namespace vaesa
