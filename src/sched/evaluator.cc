#include "sched/evaluator.hh"

#include <optional>
#include <vector>

#include "util/contracts.hh"

namespace vaesa {

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
    return scoreLayer(arch, layer);
}

EvalResult
Evaluator::scoreLayer(const AcceleratorConfig &arch,
                      const LayerShape &layer) const
{
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

EvalResult
Evaluator::evaluateWorkload(const AcceleratorConfig &arch,
                            const std::vector<LayerShape> &layers) const
{
    return rollUp(arch, layers, {});
}

EvalResult
Evaluator::evaluateWorkload(const AcceleratorConfig &arch,
                            const Workload &workload) const
{
    return rollUp(arch, workload.layers, workload.counts);
}

EvalResult
Evaluator::rollUp(const AcceleratorConfig &arch,
                  const std::vector<LayerShape> &layers,
                  const std::vector<std::int64_t> &counts) const
{
    VAESA_EXPECT(counts.empty() || counts.size() == layers.size(),
                 "Workload: counts/layers size mismatch");
    EvalResult total;
    total.valid = true;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const EvalResult r = scoreLayer(arch, layers[i]);
        if (!r.valid) {
            evalCount_ += i + 1;
            return EvalResult{};
        }
        const double n =
            counts.empty() ? 1.0 : static_cast<double>(counts[i]);
        total.latencyCycles += n * r.latencyCycles;
        total.energyPj += n * r.energyPj;
    }
    evalCount_ += layers.size();
    total.edp = total.latencyCycles * total.energyPj;
    return total;
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
