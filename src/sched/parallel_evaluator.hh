/**
 * @file
 * Batch evaluation APIs on top of the thread pool: score many
 * (config, workload) pairs — or the layers of one workload —
 * concurrently, with results bit-identical to the serial Evaluator
 * loops. This is the scaling layer every search driver funnels its
 * bulk cost-model queries through (the ROADMAP's batching axis);
 * determinism is preserved because every sum keeps the serial
 * loop's operand order: a config's totals are accumulated in layer
 * order by one thread, and results come back in input order.
 *
 * CACHED BATCH PIPELINE (ParallelEvaluator; the DESIGN.md
 * batch-evaluation contract): a layer batch runs dedup -> probe ->
 * evaluate -> merge -> account:
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
 * Per-item outcome of a ParallelEvaluator batch evaluated with
 * per-item cancel tokens: items whose own token expires are DROPPED
 * at the next layer boundary without disturbing their batch-mates.
 */
enum class BatchItemStatus : std::uint8_t
{
    /** Scored completely; the result slot is authoritative. */
    Ok = 0,

    /** The item's own token expired; its result slot is the invalid
     *  zero EvalResult and layers past the boundary were never
     *  looked up for it. */
    DeadlineExpired = 1,
};

/**
 * Roll a workload up layer-by-layer in parallel on a plain (cache-
 * free) Evaluator. Bit-identical to Evaluator::evaluateWorkload:
 * layer results are summed on the calling thread in layer order and
 * any unmappable layer zeroes the total. Unlike the serial loop,
 * layers after an invalid one are still evaluated (they were already
 * in flight), so the inner evaluationCount() can differ.
 */
EvalResult evaluateWorkloadParallel(
    const Evaluator &evaluator, const AcceleratorConfig &arch,
    const std::vector<LayerShape> &layers, ThreadPool &pool);

/**
 * Score configs[i] on the whole workload into result i on a plain
 * (cache-free) Evaluator — the uncached driver fast path. Results
 * are bit-identical to calling evaluator.evaluateWorkload per
 * config. Exact duplicate configs are folded once per batch
 * (evaluation is deterministic, so sharing one result is lossless);
 * the pool then steals chunks of distinct configs — one fork/join
 * per batch — and each chunk scores every layer through the SoA
 * batch cost model, accumulating each config's sums in layer order
 * with an alive mask that reproduces the serial early-exit (a
 * config invalid at layer L is not scored past L). Dedup means the
 * evaluator's evaluationCount() advances by distinct work, not
 * input size. The "batch_chunk" fault site fires once per claimed
 * chunk; a throw returns nothing.
 */
std::vector<EvalResult> evaluateConfigBatch(
    const Evaluator &evaluator,
    const std::vector<AcceleratorConfig> &configs,
    const std::vector<LayerShape> &layers, ThreadPool &pool);

/**
 * Occurrence-counted variant: layer i's latency/energy enter each
 * config's totals weighted by workload.countOf(i), matching
 * Evaluator::evaluateWorkload(arch, workload) per config bit for bit
 * (weights multiply before the in-order accumulation, and an empty
 * counts vector weighs every layer exactly 1.0, collapsing to the
 * overload above).
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
     * evaluateBatch with PER-ITEM deadlines: the serve-side
     * coalescing entry point (serve/batcher.cc funnels concurrent
     * ScoreConfig requests here as one SoA batch).
     *
     * @p itemTokens, when non-null, holds configs.size() borrowed
     * token pointers (individual entries may be null = no deadline).
     * Expiry of item i's own token is observed at layer boundaries —
     * including before the first layer — and drops ONLY item i from
     * the rest of the batch: statuses[i] (when @p statuses is
     * non-null) becomes DeadlineExpired, its result slot is the
     * invalid zero result, and its batch-mates score on untouched.
     * Completed layers stay merged into the cache, exactly as a
     * solo request cancelled between layers would leave it.
     *
     * The evaluator-wide token installed via setCancelToken() keeps
     * its PR 7 semantics on top: it fires at chunk claims and throws
     * DeadlineExceeded for the WHOLE batch through the all-or-
     * nothing exit (per-item tokens never throw). With null
     * @p itemTokens this is exactly evaluateBatch(), which now
     * delegates here.
     */
    std::vector<EvalResult> evaluateConfigBatch(
        const std::vector<AcceleratorConfig> &configs,
        const std::vector<LayerShape> &workload,
        const CancelToken *const *itemTokens,
        BatchItemStatus *statuses) const;

    /** Score configs[i] on one layer into result i through the
     *  chunked dedup/probe/merge pipeline (see file comment). */
    std::vector<EvalResult> evaluateLayerBatch(
        const std::vector<AcceleratorConfig> &configs,
        const LayerShape &layer) const;

    /**
     * One config's workload sum with the *layers* fanned out across
     * the pool; bit-identical to the serial roll-up (summed in layer
     * order on the calling thread).
     */
    EvalResult evaluateWorkload(
        const AcceleratorConfig &arch,
        const std::vector<LayerShape> &layers) const;

    /** The shared memo cache. */
    const CachingEvaluator &cache() const { return *cache_; }

    /** The pool work is scheduled on. */
    ThreadPool &pool() const { return *pool_; }

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
