/**
 * @file
 * Batch evaluation on the thread pool: score many configs on one
 * workload, bit-identical to the serial Evaluator loops, because a
 * config's totals are summed in layer order by one thread and
 * results come back in input order.
 *
 * ONE ENGINE, CONFIG-MAJOR (the DESIGN.md batch contract), behind
 * an uncached and a cached entry point:
 *   1. fold duplicate configs once per batch;
 *   2. cached: key every (distinct config, layer) cell and make one
 *      locked-per-shard probe of the whole batch;
 *   3. ThreadPool::forEachChunk hands chunks (chunkSizeFor()) of
 *      distinct configs to the calling thread and the pool's
 *      workers — one fork/join per batch, so the caller scores
 *      chunks instead of waiting — and each chunk scores its configs
 *      one at a time, no lock held: uncached through
 *      Evaluator::evaluateWorkload, cached through the cache's one
 *      row walk (the same walk as CachingEvaluator::evaluateWorkload),
 *      which computes only what the probe missed into its own row;
 *   4. cached: after the join, the calling thread inserts every
 *      computed cell in one pass and folds the counters once, to a
 *      serial loop's exact hit/miss totals;
 *   5. results scatter back to input order.
 * A fault or expired token at a chunk claim, the caller's own
 * included, throws after every helper task has returned and skips
 * steps 4-5: a killed batch is all-or-nothing, with no partial merge
 * and no counter drift. A stopping pool throws before any config is
 * scored.
 */

#ifndef VAESA_SCHED_PARALLEL_EVALUATOR_HH
#define VAESA_SCHED_PARALLEL_EVALUATOR_HH

#include <vector>

#include "sched/caching_evaluator.hh"
#include "util/deadline.hh"
#include "util/thread_pool.hh"
#include "workload/networks.hh"

namespace vaesa {

/**
 * Work-stealing chunk size for a batch of @p items across @p threads
 * workers: items/(threads*8) clamped to [min(items, 8), 256]. ~8
 * chunks per worker keeps the steal-cursor overhead negligible (one
 * atomic add per ~10-2000 µs of work) while bounding tail imbalance
 * to ~1/8 of a worker's share; the floor of 8 stops tiny batches
 * from degrading to per-item claims. Contract (unit-tested): the
 * result is never 0, never exceeds max(items, 1) — so ceil(items /
 * chunk) chunks never outnumber items and no chunk is empty — and
 * threads == 0 behaves like threads == 1.
 */
std::size_t chunkSizeFor(std::size_t items, std::size_t threads);

/**
 * Score configs[i] on the whole workload into result i on a plain
 * (cache-free) Evaluator, bit-identical to
 * evaluator.evaluateWorkload(config, workload) per config: each
 * layer's latency/energy is weighted by workload.countOf(layer)
 * before the in-order accumulation, and a config invalid at layer L
 * is not scored past L. Exact duplicates are folded once per batch,
 * so evaluationCount() advances by distinct work, not input size.
 * The "batch_chunk" fault site fires once per claimed chunk; a throw
 * returns nothing.
 */
std::vector<EvalResult> evaluateConfigBatch(
    const Evaluator &evaluator,
    const std::vector<AcceleratorConfig> &configs,
    const Workload &workload, ThreadPool &pool);

/**
 * The same batch through the shared memo cache @p cache: configs are
 * snapped to the grid (the cache key) and folded by snapped point,
 * every (config, layer) key is probed once, and only the misses are
 * computed on cache.inner(). A layer whose shape repeats an earlier
 * one reuses that layer's result and counts as a hit. Results equal
 * cache.inner().evaluateWorkload(snapped config, workload) bit for
 * bit (occurrence counts included), and the hit/miss totals equal a
 * cache.evaluateWorkload() loop over the inputs, duplicates included.
 *
 * @p cancel (borrowed, may be null) is checked at every chunk claim,
 * like the "batch_chunk" fault site, on whichever thread claims the
 * chunk (the calling thread claims chunks too). Either one firing
 * throws after every helper task has returned and leaves the cache
 * exactly as it was: no entry inserted, no hit or miss counted. Do not
 * call from inside a task of @p pool: that task would wait on tasks
 * queued behind itself (see ThreadPool::forEachChunk).
 */
std::vector<EvalResult> evaluateCachedBatch(
    const CachingEvaluator &cache,
    const std::vector<AcceleratorConfig> &configs,
    const Workload &workload, ThreadPool &pool,
    const CancelToken *cancel = nullptr);

} // namespace vaesa

#endif // VAESA_SCHED_PARALLEL_EVALUATOR_HH
