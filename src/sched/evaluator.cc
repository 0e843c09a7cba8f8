#include "sched/evaluator.hh"

#include <optional>
#include <vector>

#include "costmodel/batch_cost_model.hh"
#include "util/contracts.hh"

namespace vaesa {

namespace {

/** The one workload roll-up behind both evaluateWorkload overloads:
 *  layer i's latency/energy enter the totals weighted by counts[i]
 *  (exactly 1.0 when counts is empty, which leaves every product
 *  unchanged), and the first unmappable layer zeroes the result. */
EvalResult
rollUp(const Evaluator &evaluator, const AcceleratorConfig &arch,
       const std::vector<LayerShape> &layers,
       const std::vector<std::int64_t> &counts)
{
    VAESA_EXPECT(counts.empty() || counts.size() == layers.size(),
                 "Workload: counts/layers size mismatch");
    EvalResult total;
    total.valid = true;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const EvalResult r = evaluator.evaluateLayer(arch, layers[i]);
        if (!r.valid)
            return EvalResult{};
        const double n =
            counts.empty() ? 1.0 : static_cast<double>(counts[i]);
        total.latencyCycles += n * r.latencyCycles;
        total.energyPj += n * r.energyPj;
    }
    total.edp = total.latencyCycles * total.energyPj;
    return total;
}

} // namespace

Evaluator::Evaluator()
    : model_(), scheduler_(model_)
{
}

Evaluator::Evaluator(const CostModel &model)
    : model_(model), scheduler_(model_)
{
}

Evaluator::Evaluator(const Evaluator &other)
    : model_(other.model_), scheduler_(other.scheduler_),
      evalCount_(other.evalCount_.load())
{
}

Evaluator &
Evaluator::operator=(const Evaluator &other)
{
    if (this != &other) {
        model_ = other.model_;
        scheduler_ = other.scheduler_;
        evalCount_.store(other.evalCount_.load());
    }
    return *this;
}

EvalResult
Evaluator::evaluateLayer(const AcceleratorConfig &arch,
                         const LayerShape &layer) const
{
    ++evalCount_;
    EvalResult result;
    const auto mapping = scheduler_.schedule(arch, layer);
    if (!mapping)
        return result;
    const CostResult cost = model_.evaluate(arch, layer, *mapping);
    if (!cost.valid)
        return result;
    result.valid = true;
    result.latencyCycles = cost.latencyCycles;
    result.energyPj = cost.energyPj;
    result.edp = cost.edp();
    return result;
}

void
Evaluator::evaluateLayerBatch(const AcceleratorConfig *archs,
                              std::size_t n, const LayerShape &layer,
                              EvalResult *results) const
{
    if (n == 0)
        return;
    evalCount_ += n;

    // Scheduling stays per item (branchy search over tile factors);
    // unmapped items are finalized invalid here, mapped items go
    // through the SoA cost kernel in one pass.
    std::vector<std::optional<Mapping>> mappings(n);
    std::vector<AcceleratorConfig> liveArchs;
    std::vector<Mapping> liveMappings;
    std::vector<std::size_t> liveIdx;
    liveArchs.reserve(n);
    liveMappings.reserve(n);
    liveIdx.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        results[i] = EvalResult{};
        mappings[i] = scheduler_.schedule(archs[i], layer);
        if (mappings[i]) {
            liveArchs.push_back(archs[i]);
            liveMappings.push_back(*mappings[i]);
            liveIdx.push_back(i);
        }
    }
    if (liveIdx.empty())
        return;

    std::vector<CostResult> costs(liveIdx.size());
    const BatchCostModel batchModel(model_);
    batchModel.evaluateLayer(liveArchs.data(), liveMappings.data(),
                             liveIdx.size(), layer, costs.data());

    for (std::size_t j = 0; j < liveIdx.size(); ++j) {
        if (!costs[j].valid)
            continue;
        EvalResult &r = results[liveIdx[j]];
        r.valid = true;
        r.latencyCycles = costs[j].latencyCycles;
        r.energyPj = costs[j].energyPj;
        r.edp = costs[j].edp();
    }
}

EvalResult
Evaluator::evaluateWorkload(const AcceleratorConfig &arch,
                            const std::vector<LayerShape> &layers) const
{
    return rollUp(*this, arch, layers, {});
}

EvalResult
Evaluator::evaluateWorkload(const AcceleratorConfig &arch,
                            const Workload &workload) const
{
    return rollUp(*this, arch, workload.layers, workload.counts);
}

CostResult
Evaluator::detailedLayer(const AcceleratorConfig &arch,
                         const LayerShape &layer,
                         Mapping *mapping_out) const
{
    ++evalCount_;
    const auto mapping = scheduler_.schedule(arch, layer);
    if (!mapping) {
        CostResult invalid;
        invalid.valid = false;
        invalid.invalidReason = "no legal mapping";
        return invalid;
    }
    if (mapping_out)
        *mapping_out = *mapping;
    return model_.evaluate(arch, layer, *mapping);
}

} // namespace vaesa
