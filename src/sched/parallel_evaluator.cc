#include "sched/parallel_evaluator.hh"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "util/fault.hh"
#include "util/rng.hh"

namespace vaesa {

namespace {

/** Value hash over the six hardware parameters, for deduplicating
 *  EXACT config duplicates (no snapping: two off-grid configs that
 *  would snap together may still evaluate differently on a plain
 *  Evaluator, so only bytewise-equal configs may share a result). */
struct ConfigHash
{
    std::size_t operator()(const AcceleratorConfig &config) const
    {
        std::uint64_t h = 0;
        for (int p = 0; p < numHwParams; ++p) {
            h = mix64(h ^ static_cast<std::uint64_t>(
                              config.value(static_cast<HwParam>(p))));
        }
        return static_cast<std::size_t>(h);
    }
};

/** A batch with its exact duplicates folded:
 *  configs[i] == uniques[slotOf[i]]. */
struct FoldedBatch
{
    std::vector<AcceleratorConfig> uniques;
    std::vector<std::uint32_t> slotOf;
};

FoldedBatch
foldDuplicates(const std::vector<AcceleratorConfig> &configs)
{
    FoldedBatch batch;
    batch.slotOf.resize(configs.size());
    std::unordered_map<AcceleratorConfig, std::uint32_t, ConfigHash>
        uniqueOf;
    uniqueOf.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto [it, inserted] = uniqueOf.emplace(
            configs[i],
            static_cast<std::uint32_t>(batch.uniques.size()));
        if (inserted)
            batch.uniques.push_back(configs[i]);
        batch.slotOf[i] = it->second;
    }
    return batch;
}

/**
 * The one batch engine: score the distinct configs of @p batch in
 * chunkSizeFor() chunks on ThreadPool::forEachChunk (one fork/join
 * per batch), @p score(c) scoring batch.uniques[c], and scatter the
 * totals back to input order. The "batch_chunk" fault site and
 * @p cancel fire at each claim, before the chunk computes; either
 * one throws, with nothing returned, once every helper has joined.
 */
template <class Score>
std::vector<EvalResult>
scoreBatch(const FoldedBatch &batch, ThreadPool &pool,
           const CancelToken *cancel, const Score &score)
{
    const std::size_t n = batch.uniques.size();
    std::vector<EvalResult> uniqueTotals(n);
    pool.forEachChunk(n, chunkSizeFor(n, pool.threadCount()),
                      [&](std::size_t begin, std::size_t end) {
                          faultCheck("batch_chunk");
                          if (cancel)
                              cancel->check("batch_chunk");
                          for (std::size_t c = begin; c < end; ++c)
                              uniqueTotals[c] = score(c);
                      });
    std::vector<EvalResult> totals(batch.slotOf.size());
    for (std::size_t i = 0; i < totals.size(); ++i)
        totals[i] = uniqueTotals[batch.slotOf[i]];
    return totals;
}

} // namespace

std::size_t
chunkSizeFor(std::size_t items, std::size_t threads)
{
    // The floor of 8 must never hand out a chunk larger than the
    // batch itself (a 3-item batch gets one 3-item chunk, not an
    // 8-item one), and a 0-item batch yields chunk 1 so callers
    // dividing by the chunk size never see zero.
    const std::size_t floorChunk =
        std::min<std::size_t>(8, std::max<std::size_t>(items, 1));
    const std::size_t target =
        items / (std::max<std::size_t>(1, threads) * 8);
    return std::clamp<std::size_t>(target, floorChunk, 256);
}

std::vector<EvalResult>
evaluateConfigBatch(const Evaluator &evaluator,
                    const std::vector<AcceleratorConfig> &configs,
                    const Workload &workload, ThreadPool &pool)
{
    const FoldedBatch batch = foldDuplicates(configs);
    return scoreBatch(batch, pool, nullptr, [&](std::size_t c) {
        return evaluator.evaluateWorkload(batch.uniques[c], workload);
    });
}

std::vector<EvalResult>
evaluateCachedBatch(const CachingEvaluator &cache,
                    const std::vector<AcceleratorConfig> &configs,
                    const Workload &workload, ThreadPool &pool,
                    const CancelToken *cancel)
{
    // Fold by snapped point: the cache key is the grid index, so
    // configs that snap together share every entry.
    std::vector<AcceleratorConfig> snapped;
    snapped.reserve(configs.size());
    for (const AcceleratorConfig &config : configs)
        snapped.push_back(cache.snapConfig(config));
    const FoldedBatch batch = foldDuplicates(snapped);

    // One row of layer cells per distinct config, probed at once;
    // the first row registers the layers, the others copy its ids.
    const std::size_t layers = workload.layers.size();
    const std::size_t cells = batch.uniques.size() * layers;
    std::vector<CachingEvaluator::BatchKey> keys(cells);
    for (std::size_t c = 0; c < batch.uniques.size(); ++c) {
        const std::uint64_t config =
            cache.snappedConfigKey(batch.uniques[c]);
        if (c == 0) {
            cache.layerKeys(workload.layers, config, keys.data());
            continue;
        }
        for (std::size_t li = 0; li < layers; ++li)
            keys[c * layers + li] = {config, keys[li].layer};
    }
    std::vector<EvalResult> results(cells);
    std::vector<unsigned char> state(cells);
    cache.probeBatch(keys.data(), cells, results.data(), state.data());

    std::vector<std::size_t> walked(batch.uniques.size());
    std::vector<EvalResult> totals =
        scoreBatch(batch, pool, cancel, [&](std::size_t c) {
            const std::size_t row = c * layers;
            const CachingEvaluator::RowWalk walk = cache.walkRow(
                batch.uniques[c], workload.layers, workload.counts,
                keys.data() + row, results.data() + row,
                state.data() + row, nullptr);
            walked[c] = walk.walked;
            return walk.total;
        });

    // Merge on the calling thread, after the join: every input copy
    // of a distinct config counts its walk as lookups, exactly like
    // a serial evaluateWorkload() loop.
    std::uint64_t lookups = 0;
    for (const std::uint32_t slot : batch.slotOf)
        lookups += walked[slot];
    cache.accountBatch(lookups, cache.insertBatch(keys.data(),
                                                  results.data(),
                                                  state.data(), cells));
    return totals;
}

} // namespace vaesa
