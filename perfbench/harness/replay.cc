#include "replay.hh"

#include "common.hh"
#include "costmodel/batch_cost_model.hh"
#include "sched/scheduler.hh"

namespace perfbench {

using namespace vaesa;

ReplayCost
replayPairs(const std::vector<AcceleratorConfig> &configs,
            const std::vector<std::size_t> &layerOf,
            const std::vector<LayerShape> &layers, SpanLog *log)
{
    const Span op(log, "op", "replay");
    const CostModel model;
    const Scheduler scheduler(model);
    const BatchCostModel batch(model);
    std::vector<std::vector<std::size_t>> byLayer(layers.size());
    for (std::size_t i = 0; i < configs.size(); ++i)
        byLayer[layerOf[i]].push_back(i);

    ReplayCost cost;
    std::uint64_t mapNs = 0, costNs = 0;
    std::vector<AcceleratorConfig> archs;
    std::vector<Mapping> mappings;
    std::vector<CostResult> results;
    for (std::size_t l = 0; l < layers.size(); ++l) {
        archs.clear();
        mappings.clear();
        {
            const Span span(log, "sched", "Scheduler::schedule");
            const std::uint64_t t0 = nowNs();
            for (std::size_t i : byLayer[l]) {
                const std::optional<Mapping> m =
                    scheduler.schedule(configs[i], layers[l]);
                if (m) {
                    archs.push_back(configs[i]);
                    mappings.push_back(*m);
                }
            }
            mapNs += nowNs() - t0;
        }
        cost.pairs += byLayer[l].size();
        if (archs.empty())
            continue;
        results.resize(archs.size());
        {
            const Span span(log, "costmodel",
                            "BatchCostModel::evaluateLayer");
            const std::uint64_t t0 = nowNs();
            batch.evaluateLayer(archs.data(), mappings.data(),
                                archs.size(), layers[l],
                                results.data());
            costNs += nowNs() - t0;
        }
        cost.items += archs.size();
    }
    if (cost.pairs)
        cost.mapperNs = static_cast<double>(mapNs) /
                        static_cast<double>(cost.pairs);
    if (cost.items)
        cost.costNsPerItem = static_cast<double>(costNs) /
                             static_cast<double>(cost.items);
    return cost;
}

ReplayCost
replayMapper(const std::vector<AcceleratorConfig> &configs,
             const std::vector<LayerShape> &layers, SpanLog *log)
{
    std::vector<AcceleratorConfig> pairs;
    std::vector<std::size_t> layerOf;
    pairs.reserve(configs.size() * layers.size());
    for (std::size_t l = 0; l < layers.size(); ++l)
        for (const AcceleratorConfig &c : configs) {
            pairs.push_back(c);
            layerOf.push_back(l);
        }
    return replayPairs(pairs, layerOf, layers, log);
}

} // namespace perfbench
