#include "sched/parallel_evaluator.hh"

#include <algorithm>
#include <atomic>
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

/**
 * Run body(begin, end) over [0, n) across the pool in work-stealing
 * chunks claimed off a shared atomic cursor; each chunk writes only
 * its own outputs. The "batch_chunk" fault site and @p cancel fire
 * at the claim, before the chunk computes, and throw from here after
 * in-flight chunks finish.
 */
template <class Body>
void
forEachStolenChunk(std::size_t n, ThreadPool &pool,
                   const CancelToken *cancel, const Body &body)
{
    if (n == 0)
        return;
    const std::size_t workers =
        std::max<std::size_t>(1, pool.threadCount());
    const std::size_t chunk = chunkSizeFor(n, workers);
    const auto claim = [&](std::size_t begin) {
        faultCheck("batch_chunk");
        if (cancel)
            cancel->check("batch_chunk");
        body(begin, std::min(n, begin + chunk));
    };
    if (n <= chunk) {
        // Too small to be worth a fan-out; the calling thread scores
        // it directly (still one checkpoint per batch).
        claim(0);
        return;
    }
    std::atomic<std::size_t> cursor{0};
    pool.parallelFor(workers, [&](std::size_t) {
        for (std::size_t begin; (begin = cursor.fetch_add(chunk)) < n;)
            claim(begin);
    });
}

/** Probe state of one (distinct config, layer) cell of a cached
 *  batch; probeBatch() writes the first two. */
enum ProbeState : unsigned char { probeMiss, probeFound, probeComputed };

/** The cache side of a cached batch, one row of layer cells per
 *  distinct config: the probed or computed result, its ProbeState,
 *  and firstOf[l], the first layer with layer l's shape. */
struct ProbedRows
{
    EvalResult *results;
    unsigned char *state;
    const std::uint32_t *firstOf;
};

/**
 * Score config @p c's row of @p rows: walk its layers in order, sum
 * each layer's result weighted by the layer's count, and stop at the
 * first invalid layer with zeroed totals, as
 * Evaluator::evaluateWorkload does. A cell the probe missed is
 * computed and marked probeComputed, unless its shape repeats an
 * earlier layer: then it copies that layer's cell and is marked
 * probeFound (a hit). The computed cells are counted in one add.
 */
EvalResult
scoreProbedRow(const Evaluator &evaluator, const AcceleratorConfig &config,
               std::size_t c, const Workload &workload,
               const ProbedRows &rows)
{
    const std::size_t layers = workload.layers.size();
    EvalResult total;
    total.valid = true;
    std::uint64_t computed = 0;
    for (std::size_t li = 0; li < layers; ++li) {
        const std::size_t cell = c * layers + li;
        if (rows.state[cell] == probeMiss) {
            if (rows.firstOf[li] != li) {
                rows.results[cell] =
                    rows.results[c * layers + rows.firstOf[li]];
                rows.state[cell] = probeFound;
            } else {
                rows.results[cell] =
                    evaluator.scoreLayer(config, workload.layers[li]);
                rows.state[cell] = probeComputed;
                ++computed;
            }
        }
        const EvalResult &r = rows.results[cell];
        if (!r.valid) {
            total = EvalResult{};
            break;
        }
        const double weight = static_cast<double>(workload.countOf(li));
        total.latencyCycles += weight * r.latencyCycles;
        total.energyPj += weight * r.energyPj;
    }
    evaluator.countEvaluations(computed);
    total.edp = total.latencyCycles * total.energyPj;
    return total;
}

/**
 * Score configs [begin, end) over the whole workload into the same
 * slots of totals, one config at a time: uncached (@p rows null)
 * through Evaluator::evaluateWorkload, cached through the config's
 * probed row.
 */
void
scoreConfigChunk(const Evaluator &evaluator,
                 const AcceleratorConfig *configs, std::size_t begin,
                 std::size_t end, const Workload &workload,
                 const ProbedRows *rows, EvalResult *totals)
{
    for (std::size_t i = begin; i < end; ++i) {
        totals[i] = rows == nullptr
                        ? evaluator.evaluateWorkload(configs[i], workload)
                        : scoreProbedRow(evaluator, configs[i], i,
                                         workload, *rows);
    }
}

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
 * stolen chunks (one fork/join per batch) and scatter the totals
 * back to input order. @p rows is null when uncached. Throws, with
 * nothing returned, when a chunk claim hits the fault site or an
 * expired @p cancel.
 */
std::vector<EvalResult>
scoreBatch(const Evaluator &evaluator, const FoldedBatch &batch,
           const Workload &workload, ThreadPool &pool,
           const CancelToken *cancel, const ProbedRows *rows)
{
    std::vector<EvalResult> uniqueTotals(batch.uniques.size());
    forEachStolenChunk(batch.uniques.size(), pool, cancel,
                       [&](std::size_t begin, std::size_t end) {
                           scoreConfigChunk(evaluator,
                                            batch.uniques.data(), begin,
                                            end, workload, rows,
                                            uniqueTotals.data());
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
    return scoreBatch(evaluator, foldDuplicates(configs), workload,
                      pool, nullptr, nullptr);
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

    const std::size_t layers = workload.layers.size();
    std::vector<std::uint32_t> layerIds(layers);
    std::vector<std::uint32_t> firstOf(layers);
    for (std::size_t li = 0; li < layers; ++li) {
        layerIds[li] = cache.layerKey(workload.layers[li]);
        firstOf[li] = static_cast<std::uint32_t>(
            std::find(layerIds.begin(), layerIds.begin() + li + 1,
                      layerIds[li]) -
            layerIds.begin());
    }
    const std::size_t cells = batch.uniques.size() * layers;
    std::vector<CachingEvaluator::BatchKey> keys(cells);
    for (std::size_t c = 0; c < batch.uniques.size(); ++c) {
        const std::uint64_t config =
            cache.snappedConfigKey(batch.uniques[c]);
        for (std::size_t li = 0; li < layers; ++li)
            keys[c * layers + li] = {config, layerIds[li]};
    }
    std::vector<EvalResult> results(cells);
    std::vector<unsigned char> state(cells);
    cache.probeBatch(keys.data(), cells, results.data(), state.data());

    const ProbedRows rows{results.data(), state.data(), firstOf.data()};
    std::vector<EvalResult> totals = scoreBatch(
        cache.inner(), batch, workload, pool, cancel, &rows);

    // Merge on the calling thread, after the join. Each distinct
    // config walked its layers up to its first invalid one; every
    // input copy of it counts that walk as lookups, exactly like a
    // serial evaluateWorkload() loop.
    std::vector<CachingEvaluator::BatchKey> computedKeys;
    std::vector<EvalResult> computed;
    std::vector<std::uint64_t> walked(batch.uniques.size(), 0);
    for (std::size_t c = 0; c < batch.uniques.size(); ++c) {
        for (std::size_t cell = c * layers; cell < (c + 1) * layers;
             ++cell) {
            ++walked[c];
            if (state[cell] == probeComputed) {
                computedKeys.push_back(keys[cell]);
                computed.push_back(results[cell]);
            }
            if (!results[cell].valid)
                break;
        }
    }
    cache.insertBatch(computedKeys.data(), computed.data(),
                      computed.size());
    std::uint64_t lookups = 0;
    for (const std::uint32_t slot : batch.slotOf)
        lookups += walked[slot];
    cache.accountBatch(lookups, computed.size());
    return totals;
}

} // namespace vaesa
