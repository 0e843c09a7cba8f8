/**
 * @file
 * Batch evaluation APIs on top of the thread pool: score many
 * (config, workload) pairs concurrently, with results bit-identical
 * to the serial Evaluator loops. This is the scaling layer every
 * search driver funnels its bulk cost-model queries through (the
 * ROADMAP's batching axis); determinism is preserved because every
 * sum keeps the serial loop's operand order: a config's totals are
 * accumulated in layer order by one thread, and results come back in
 * input order.
 *
 * CACHED BATCH PIPELINE (ParallelEvaluator; the DESIGN.md
 * batch-evaluation contract): each layer of a batch runs dedup ->
 * probe -> evaluate -> merge -> account:
 *   1. snap + key every config, then deduplicate keys (searches
 *      repeatedly decode to the same snapped config, so a batch of N
 *      often holds far fewer distinct keys);
 *   2. one locked-per-shard probeBatch() against the memo cache;
 *   3. the missing distinct keys are evaluated through the SoA batch
 *      cost model in work-stealing CHUNKS (chunkSizeFor()) claimed
 *      off a shared atomic cursor — each chunk's results land in a
 *      thread-local slice, no lock held while evaluating;
 *   4. the slices are merged into the cache once, at batch end
 *      (insertBatch), and the counters folded with accountBatch(),
 *      reproducing the serial path's hit/miss totals exactly;
 *   5. results scatter back to input order on the calling thread.
 * A fault or exception inside step 3 propagates after in-flight
 * chunks finish and SKIPS steps 4-5, so a killed batch is
 * all-or-nothing: no partial merge, no counter drift.
 */

#ifndef VAESA_SCHED_PARALLEL_EVALUATOR_HH
#define VAESA_SCHED_PARALLEL_EVALUATOR_HH

#include <vector>

#include "sched/caching_evaluator.hh"
#include "util/deadline.hh"
#include "util/thread_pool.hh"

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
 * (cache-free) Evaluator — the uncached driver fast path. Results
 * are bit-identical to calling evaluator.evaluateWorkload(config,
 * workload) per config: layer i's latency/energy enter each config's
 * totals weighted by workload.countOf(i), multiplied before the
 * in-order accumulation (an empty counts vector weighs every layer
 * exactly 1.0). Exact duplicate configs are folded once per batch
 * (evaluation is deterministic, so sharing one result is lossless);
 * the pool then steals chunks of distinct configs — one fork/join
 * per batch — and each chunk scores every layer through the SoA
 * batch cost model with an alive mask that reproduces the serial
 * early-exit (a config invalid at layer L is not scored past L).
 * Dedup means the evaluator's evaluationCount() advances by distinct
 * work, not input size. The "batch_chunk" fault site fires once per
 * claimed chunk; a throw returns nothing.
 */
std::vector<EvalResult> evaluateConfigBatch(
    const Evaluator &evaluator,
    const std::vector<AcceleratorConfig> &configs,
    const Workload &workload, ThreadPool &pool);

/**
 * Batch front-end over a shared CachingEvaluator and a ThreadPool.
 * Borrows both (they must outlive this). All methods are safe to
 * call from one thread while the pool's workers fan the batch out;
 * do not call them from inside a pool task (see
 * ThreadPool::parallelFor).
 */
class ParallelEvaluator
{
  public:
    ParallelEvaluator(const CachingEvaluator &cache, ThreadPool &pool);

    /**
     * Score configs[i] on the whole workload into result i. Runs
     * layer-by-layer over the batch through the chunked pipeline
     * above, with an alive mask reproducing the serial early-exit:
     * a config invalid at layer L does not look up layers beyond L,
     * so both the results AND the cache hit/miss totals are
     * identical to calling cache.evaluateWorkload per config. Sums
     * accumulate in layer order on the calling thread.
     */
    std::vector<EvalResult> evaluateBatch(
        const std::vector<AcceleratorConfig> &configs,
        const std::vector<LayerShape> &workload) const;

    /**
     * Observe @p token (borrowed; may be nullptr to detach) at every
     * chunk-claim checkpoint. Expiry throws DeadlineExceeded from
     * the batch call after in-flight chunks finish, taking the SAME
     * all-or-nothing exit as an injected fault: no partial merge, no
     * counter drift — so a request killed by its deadline leaves the
     * shared cache exactly as a never-started one. Set it before
     * sharing the evaluator with workers; one evaluator instance
     * serves one request at a time (instances are cheap views over
     * the shared cache + pool, so concurrent requests each build
     * their own).
     */
    void setCancelToken(const CancelToken *token) { cancel_ = token; }

  private:
    /** One layer of the pipeline over the items snapped[idx[j]],
     *  j in [0, m); writes results[idx[j]]. @p snapped and
     *  @p configKeys are the HOISTED per-config snap/key arrays
     *  (snapConfig() result and its snappedConfigKey()), computed
     *  once per batch call and reused for every layer — re-deriving
     *  them per layer was pure redundant work (the snap and the
     *  59-bit packing are layer-independent). */
    void scoreLayerSubset(const AcceleratorConfig *snapped,
                          const std::uint64_t *configKeys,
                          const std::uint32_t *idx, std::size_t m,
                          const LayerShape &layer,
                          EvalResult *results) const;

    const CachingEvaluator *cache_;
    ThreadPool *pool_;
    const CancelToken *cancel_ = nullptr;
};

} // namespace vaesa

#endif // VAESA_SCHED_PARALLEL_EVALUATOR_HH
