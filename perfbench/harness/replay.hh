/**
 * @file
 * Mapper and cost-model replay: a run's (config, layer) pairs pushed
 * through the public Scheduler and BatchCostModel calls one layer at
 * a time, so the traced run can price those two layers per item.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <vector>

#include "arch/design_space.hh"
#include "spans.hh"
#include "workload/layer.hh"

namespace perfbench {

/** Cost of the replayed pairs. */
struct ReplayCost
{
    /** Scheduler::schedule time per (config, layer). */
    double mapperNs = 0.0;

    /** BatchCostModel::evaluateLayer time per mapped item. */
    double costNsPerItem = 0.0;

    /** Pairs scheduled and items scored. */
    std::size_t pairs = 0;
    std::size_t items = 0;
};

/** Replay every config of @p configs on every layer of @p layers. */
ReplayCost replayMapper(const std::vector<vaesa::AcceleratorConfig> &configs,
                        const std::vector<vaesa::LayerShape> &layers,
                        SpanLog *log);

/** Replay explicit (config, layer) pairs, grouped by layer. */
ReplayCost replayPairs(
    const std::vector<vaesa::AcceleratorConfig> &configs,
    const std::vector<std::size_t> &layerOf,
    const std::vector<vaesa::LayerShape> &layers, SpanLog *log);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
