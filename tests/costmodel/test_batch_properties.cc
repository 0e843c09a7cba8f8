/**
 * @file
 * Property tests of the SoA batch cost model against the scalar
 * CostModel. The contract under test (batch_cost_model.hh): batch
 * results are BIT-identical to the scalar path in every field the
 * batch fills, permutation-invariant, and duplicate-stable.
 *
 * There is one cost kernel, and it does not follow VAESA_KERNEL.
 * Every property still runs under both settings of that switch
 * (saved and restored around each test), so a cost path that starts
 * depending on the GEMM kernel choice fails here in one run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "costmodel/batch_cost_model.hh"
#include "sched/evaluator.hh"
#include "sched/random_mapper.hh"
#include "tensor/kernels/kernels.hh"
#include "workload/networks.hh"
#include "workload/zoo.hh"

namespace vaesa {
namespace {

/** One scored item of a randomized batch. */
struct BatchItem
{
    AcceleratorConfig arch;
    Mapping mapping;
};

/** Draw up to @p want (config, mapping) items for one layer. */
std::vector<BatchItem>
drawItems(const LayerShape &layer, std::size_t want, Rng &rng)
{
    RandomMapper mapper;
    std::vector<BatchItem> items;
    for (int trial = 0; trial < 400 && items.size() < want; ++trial) {
        const AcceleratorConfig arch = designSpace().randomConfig(rng);
        const auto mapping = mapper.sampleMapping(arch, layer, rng);
        if (mapping)
            items.push_back({arch, *mapping});
    }
    return items;
}

std::vector<CostResult>
scoreBatch(const BatchCostModel &batch,
           const std::vector<BatchItem> &items, const LayerShape &layer)
{
    std::vector<AcceleratorConfig> archs;
    std::vector<Mapping> mappings;
    for (const BatchItem &it : items) {
        archs.push_back(it.arch);
        mappings.push_back(it.mapping);
    }
    std::vector<CostResult> results(items.size());
    batch.evaluateLayer(archs.data(), mappings.data(), items.size(),
                        layer, results.data());
    return results;
}

/** Fields the batch path fills (batch_cost_model.hh scope note). */
void
expectBitIdentical(const CostResult &a, const CostResult &b)
{
    ASSERT_EQ(a.valid, b.valid);
    if (!a.valid) {
        EXPECT_EQ(a.invalidReason, b.invalidReason);
        return;
    }
    EXPECT_EQ(a.latencyCycles, b.latencyCycles);
    EXPECT_EQ(a.energyPj, b.energyPj);
    EXPECT_EQ(a.computeCycles, b.computeCycles);
    EXPECT_EQ(a.dramCycles, b.dramCycles);
    EXPECT_EQ(a.globalBufCycles, b.globalBufCycles);
    EXPECT_EQ(a.dramWeightReads, b.dramWeightReads);
    EXPECT_EQ(a.dramInputReads, b.dramInputReads);
    EXPECT_EQ(a.dramOutputWrites, b.dramOutputWrites);
    EXPECT_EQ(a.macUtilization, b.macUtilization);
    EXPECT_EQ(a.edp(), b.edp());
}

class BatchCostProperties
    : public ::testing::TestWithParam<kernels::KernelKind>
{
  protected:
    void SetUp() override
    {
        saved_ = kernels::activeKernel();
        kernels::setActiveKernel(GetParam());
    }

    void TearDown() override { kernels::setActiveKernel(saved_); }

    CostModel model;
    BatchCostModel batch{model};

  private:
    kernels::KernelKind saved_ = kernels::KernelKind::Blocked;
};

TEST_P(BatchCostProperties, MatchesScalarModel)
{
    Rng rng(501);
    int checked = 0;
    for (const Workload &w : trainingWorkloads()) {
        for (const LayerShape &layer : w.layers) {
            const auto items = drawItems(layer, 24, rng);
            const auto results = scoreBatch(batch, items, layer);
            for (std::size_t i = 0; i < items.size(); ++i) {
                const CostResult scalar = model.evaluate(
                    items[i].arch, layer, items[i].mapping);
                ASSERT_EQ(results[i].valid, scalar.valid);
                if (!scalar.valid)
                    continue;
                ++checked;
                expectBitIdentical(results[i], scalar);
            }
        }
    }
    EXPECT_GT(checked, 100);
}

TEST_P(BatchCostProperties, PermutationInvariant)
{
    Rng rng(502);
    const LayerShape layer = trainingWorkloads()[0].layers[0];
    auto items = drawItems(layer, 32, rng);
    ASSERT_GE(items.size(), 8u);

    const auto before = scoreBatch(batch, items, layer);

    // Deterministic shuffle, then map each result back.
    std::vector<std::size_t> perm(items.size());
    for (std::size_t i = 0; i < perm.size(); ++i)
        perm[i] = i;
    for (std::size_t i = perm.size(); i > 1; --i)
        std::swap(perm[i - 1], perm[rng.index(i)]);
    std::vector<BatchItem> shuffled;
    for (const std::size_t p : perm)
        shuffled.push_back(items[p]);

    const auto after = scoreBatch(batch, shuffled, layer);
    for (std::size_t i = 0; i < perm.size(); ++i)
        expectBitIdentical(after[i], before[perm[i]]);
}

TEST_P(BatchCostProperties, DuplicateStable)
{
    Rng rng(503);
    const LayerShape layer = trainingWorkloads()[0].layers[2];
    const auto base = drawItems(layer, 6, rng);
    ASSERT_GE(base.size(), 3u);

    // Each base item repeated several times, interleaved.
    std::vector<BatchItem> dup;
    for (int rep = 0; rep < 5; ++rep)
        for (const BatchItem &it : base)
            dup.push_back(it);

    const auto single = scoreBatch(batch, base, layer);
    const auto repeated = scoreBatch(batch, dup, layer);
    for (std::size_t i = 0; i < dup.size(); ++i)
        expectBitIdentical(repeated[i], single[i % base.size()]);
}

TEST_P(BatchCostProperties, InvalidItemsCarryScalarReasons)
{
    Rng rng(504);
    const LayerShape layer = trainingWorkloads()[0].layers[1];
    auto items = drawItems(layer, 6, rng);
    ASSERT_GE(items.size(), 4u);

    // Break half the batch in distinct ways; the batch path must
    // report the scalar checkMapping() reason verbatim and leave the
    // valid neighbors untouched.
    items[0].mapping.tilePe[DimR] = 0;
    items[1].mapping.tileGb[DimP] = 0;
    items[2].mapping.spatialK = -1;

    const auto results = scoreBatch(batch, items, layer);
    for (std::size_t i = 0; i < items.size(); ++i) {
        std::string reason;
        const bool ok = model.checkMapping(items[i].arch, layer,
                                           items[i].mapping, &reason);
        ASSERT_EQ(results[i].valid, ok);
        if (!ok) {
            EXPECT_EQ(results[i].invalidReason, reason);
            EXPECT_EQ(results[i].latencyCycles, 0.0);
            EXPECT_EQ(results[i].energyPj, 0.0);
        } else {
            expectBitIdentical(
                results[i],
                model.evaluate(items[i].arch, layer,
                               items[i].mapping));
        }
    }
    EXPECT_FALSE(results[0].valid);
    EXPECT_FALSE(results[1].valid);
    EXPECT_FALSE(results[2].valid);
}

TEST_P(BatchCostProperties, EvaluatorLayerBatchMatchesLoop)
{
    Rng rng(505);
    const Evaluator evaluator;
    const LayerShape layer = trainingWorkloads()[1].layers[0];
    std::vector<AcceleratorConfig> configs;
    for (int i = 0; i < 40; ++i)
        configs.push_back(designSpace().randomConfig(rng));

    std::vector<EvalResult> batched(configs.size());
    evaluator.evaluateLayerBatch(configs.data(), configs.size(),
                                 layer, batched.data());

    for (std::size_t i = 0; i < configs.size(); ++i) {
        const EvalResult serial =
            evaluator.evaluateLayer(configs[i], layer);
        ASSERT_EQ(batched[i].valid, serial.valid);
        EXPECT_EQ(batched[i].latencyCycles, serial.latencyCycles);
        EXPECT_EQ(batched[i].energyPj, serial.energyPj);
        EXPECT_EQ(batched[i].edp, serial.edp);
    }
    // The batch counted one evaluation per item, the loop another.
    EXPECT_EQ(evaluator.evaluationCount(), 2 * configs.size());
}

// The zoo's shape extremes — depthwise convs (c=1, wide k) and long
// skinny GEMMs (huge p, tiny c/k) — stress different corners of the
// SoA kernels than the Table III convs, so the scalar-parity
// contract is pinned on them explicitly.
TEST_P(BatchCostProperties, MatchesScalarOnDepthwiseAndSkinnyGemm)
{
    Rng rng(507);

    std::vector<LayerShape> shapes;
    for (const LayerShape &l : mobileNetV2Workload().layers)
        if (l.c == 1)
            shapes.push_back(l); // the depthwise 3x3s
    for (const LayerShape &l : dlrmWorkload().layers)
        shapes.push_back(l); // batch-2048 skinny GEMMs
    ASSERT_GE(shapes.size(), 10u);

    int checked = 0;
    for (const LayerShape &layer : shapes) {
        const auto items = drawItems(layer, 16, rng);
        const auto results = scoreBatch(batch, items, layer);
        for (std::size_t i = 0; i < items.size(); ++i) {
            const CostResult scalar = model.evaluate(
                items[i].arch, layer, items[i].mapping);
            ASSERT_EQ(results[i].valid, scalar.valid)
                << layer.describe();
            if (!scalar.valid)
                continue;
            ++checked;
            expectBitIdentical(results[i], scalar);
        }
    }
    EXPECT_GT(checked, 40);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, BatchCostProperties,
    ::testing::Values(kernels::KernelKind::Naive,
                      kernels::KernelKind::Blocked),
    [](const ::testing::TestParamInfo<kernels::KernelKind> &info) {
        return std::string(kernels::kernelName(info.param));
    });

} // namespace
} // namespace vaesa
