/**
 * @file
 * Memoizing wrapper around the Evaluator. Searches over the discrete
 * design space repeatedly decode to the same snapped configuration
 * (BO exploitation, dense latent grids), and the
 * scheduler + cost model evaluation is deterministic -- so caching
 * (config, layer) results is lossless and saves a large fraction of
 * evaluation work at scale.
 */

#ifndef VAESA_SCHED_CACHING_EVALUATOR_HH
#define VAESA_SCHED_CACHING_EVALUATOR_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sched/evaluator.hh"
#include "util/deadline.hh"
#include "util/metrics.hh"
#include "util/sync.hh"

namespace vaesa {

class ThreadPool;

/**
 * Evaluator with a per-(config, layer) memo table. The cache key
 * combines the six grid indices with the layer's index in an
 * internal registry, so any layer object with the same shape hits
 * the same entry.
 *
 * ONE ROW WALK: every cache-missed (config, layer) cell is computed
 * by the private walkRow(), behind both entry points --
 * evaluateWorkload() (one config, the serve path) and
 * evaluateCachedBatch() (many configs, sched/parallel_evaluator.hh).
 * Each keys its rows, probes them in one locked-once-per-shard pass,
 * walks each row outside any lock, and then inserts the computed
 * cells in one pass and folds the hit/miss counters once: hits =
 * lookups - misses, and misses count inner evaluations performed.
 *
 * THREAD SAFETY: both entry points and the counter accessors are
 * safe to call concurrently on one instance. The memo table is split
 * into shardCount() shards, each guarded by its own mutex and keyed
 * by the mixed (config, layer) hash, so concurrent lookups of
 * different keys rarely contend; the layer registry is append-only
 * under a shared_mutex (read-mostly); hit/miss counters are sharded
 * relaxed atomics (util/metrics.hh). Shard locks are only held for
 * the table lookup/insert, never across the inner evaluation -- two
 * callers missing the same key concurrently both evaluate (the
 * results are deterministic and identical) and the second insert is
 * dropped, so misses() can exceed the number of distinct keys under
 * contention.
 *
 * SHARD SIZING: the shard count is fixed for the instance's
 * lifetime: 4 shards per default pool thread, at least 16, rounded
 * up to a power of two. Contended acquisitions are still counted
 * (the process-wide `cache.shard_contention` metric) but only
 * observed; they do not size the table.
 */
class CachingEvaluator
{
  public:
    /** Wrap a default-constructed Evaluator. */
    CachingEvaluator();

    /** Wrap an evaluator with explicit cost-model parameters. */
    explicit CachingEvaluator(const Evaluator &inner);

    /**
     * Memoized counted roll-up, like
     * Evaluator::evaluateWorkload(arch, Workload), with ONE cache
     * probe: the config is snapped and keyed once, every layer's key
     * goes into a single probe, and the row walk computes only the
     * layers the probe missed. A shape repeated within the workload's
     * layers is computed once; its later repeats count as hits. The
     * result is the sum over the layers of
     * Evaluator::evaluateLayer(), in order and weighted by
     * workload.counts (each weight exactly 1.0 when counts is empty),
     * on the snapped config (an invalid result at the first invalid
     * layer, which ends the walk), and every layer walked counts as
     * one lookup: a miss when it was computed here, a hit otherwise.
     * The computed layers are inserted once, at the end of the walk.
     * The row's buffers are per-thread scratch, reused call to call,
     * so once a thread has made a call as long, a call that hits
     * every layer does not touch the heap.
     *
     * @p cancel (may be null) is checked before each missed layer is
     * computed. On expiry the layers computed so far are inserted and
     * the layers walked accounted, as at the end of a full walk, and
     * DeadlineExceeded is thrown.
     */
    EvalResult evaluateWorkload(const AcceleratorConfig &arch,
                                const Workload &workload,
                                const CancelToken *cancel =
                                    nullptr) const;

    /** Snap every hardware parameter to its design-space grid point
     *  (the cache key is the grid index). */
    AcceleratorConfig snapConfig(const AcceleratorConfig &arch) const;

    /** Number of cache hits so far. */
    std::uint64_t hits() const { return hits_.value(); }

    /** Number of cache misses (real inner evaluations) so far. */
    std::uint64_t misses() const { return misses_.value(); }

    /** Number of independently locked memo-table shards. */
    std::size_t shardCount() const { return shardCount_; }

    /** The wrapped evaluator. */
    const Evaluator &inner() const { return inner_; }

  private:
    /** The batch entry point (sched/parallel_evaluator.hh) keys,
     *  probes, walks and inserts its rows through the members below. */
    friend std::vector<EvalResult> evaluateCachedBatch(
        const CachingEvaluator &cache,
        const std::vector<AcceleratorConfig> &configs,
        const Workload &workload, ThreadPool &pool,
        const CancelToken *cancel);

    /** Collision-free (config grid indices, layer id) pair. */
    struct BatchKey
    {
        std::uint64_t config;
        std::uint32_t layer;

        bool operator==(const BatchKey &other) const
        {
            return config == other.config && layer == other.layer;
        }
    };

    /** splitmix64-style mix over both fields; also picks the shard. */
    struct BatchKeyHash
    {
        std::size_t operator()(const BatchKey &key) const;
    };

    /** The eight dimensions LayerShape::sameShape() compares: equal
     *  ShapeDims means the same shape. */
    using ShapeDims = std::array<std::int64_t, 8>;

    /** Multiplicative fold of the eight dimensions, then mix64. */
    struct ShapeDimsHash
    {
        std::size_t operator()(const ShapeDims &dims) const;
    };

    /** Per-cell state of a probed row: probeBatch() writes the first
     *  two, walkRow() marks the cells it computes. */
    enum CellState : unsigned char { cellMissed, cellFound, cellComputed };

    /** What walkRow() did with one row. */
    struct RowWalk
    {
        /** The row's total (invalid and zeroed past an invalid
         *  layer; partial when stopped). */
        EvalResult total;
        /** Layers walked, each one lookup: up to and including the
         *  first invalid one, or before the one a stop skipped. */
        std::size_t walked = 0;
        /** The cancel token expired before a missed layer. */
        bool stopped = false;
    };

    /**
     * The one row walk: score @p snapped over @p layers from its
     * probed row (@p keys, @p results, @p state, one cell per layer).
     * Layer i's latency/energy enter the total weighted by counts[i]
     * (exactly 1.0 when @p counts is empty, as in
     * Evaluator::evaluateWorkload), and the first invalid layer ends
     * the walk with zeroed totals. A missed cell copies an earlier
     * cell of the same shape (a hit, cellFound) or is computed with
     * Evaluator::scoreLayer (cellComputed); the computed cells are
     * counted in one countEvaluations(). @p cancel (may be null) is
     * checked before each cell that would be computed; on expiry the
     * walk stops and reports it. Takes no lock.
     */
    RowWalk walkRow(const AcceleratorConfig &snapped,
                    const std::vector<LayerShape> &layers,
                    const std::vector<std::int64_t> &counts,
                    const BatchKey *keys, EvalResult *results,
                    unsigned char *state,
                    const CancelToken *cancel) const;

    /**
     * keys[i] = {config, registry id of layers[i]} for every layer,
     * registering the shapes new to the instance. The whole row is
     * resolved under one reader lock; the writer lock is taken only
     * when a shape is new. Ids are stable for the instance's
     * lifetime.
     */
    void layerKeys(const std::vector<LayerShape> &layers,
                   std::uint64_t config, BatchKey *keys) const
        VAESA_EXCLUDES(registryMutex_);

    /** Config half of a BatchKey for a SNAPPED config, shared by all
     *  the layers of its row. */
    std::uint64_t snappedConfigKey(
        const AcceleratorConfig &snapped) const;

    /**
     * Locked-once-per-shard lookup of keys [0, n): a cached key gets
     * cellFound and its value in results[i], any other cellMissed.
     * Does NOT touch the hit/miss counters.
     */
    void probeBatch(const BatchKey *keys, std::size_t n,
                    EvalResult *results, unsigned char *state) const;

    /**
     * Locked-once-per-shard insert of the cells of [0, n) that the
     * walks computed (state cellComputed); a key that raced in from
     * another caller keeps its first copy (results are deterministic,
     * so both are identical). Returns how many cells were computed.
     * Does NOT touch the counters.
     */
    std::size_t insertBatch(const BatchKey *keys,
                            const EvalResult *results,
                            const unsigned char *state,
                            std::size_t n) const;

    /**
     * Fold one batch into the hit/miss counters: @p lookups layers
     * were walked, @p misses of them were computed by the walks.
     */
    void accountBatch(std::uint64_t lookups,
                      std::uint64_t misses) const;

    /** One independently locked slice of the memo table, on its own
     *  cache lines so neighbouring shard locks do not false-share. */
    struct alignas(64) Shard
    {
        mutable Mutex shardMutex;
        std::unordered_map<BatchKey, EvalResult, BatchKeyHash> entries
            VAESA_GUARDED_BY(shardMutex);
    };

    /** Lock shard.shardMutex, counting contended acquisitions in the
     *  global `cache.shard_contention` metric. */
    static void lockShard(const Shard &shard)
        VAESA_ACQUIRE(shard.shardMutex);

    Evaluator inner_;
    /** Append-only shape registry: each shape's id, assigned 0, 1,
     *  2, ... in first-seen order; shared lock to look up, unique to
     *  append. Registered ids are stable. */
    mutable SharedMutex registryMutex_;
    mutable std::unordered_map<ShapeDims, std::uint32_t, ShapeDimsHash>
        layerIds_ VAESA_GUARDED_BY(registryMutex_);
    /** Fixed-size shard array (Shard holds a Mutex, so the array is
     *  heap-built in place); shardCount_ is a power of two, so a
     *  hash picks its shard with a mask. */
    const std::size_t shardCount_;
    const std::unique_ptr<Shard[]> shards_;
    // Sharded metrics counters (util/metrics.hh) instead of ad-hoc
    // atomics: same relaxed-increment semantics, but writers on
    // different cores stop bouncing one cache line, and the values
    // are mirrored into the process-wide registry ("cache.*") for
    // the run manifest.
    mutable metrics::Counter hits_;
    mutable metrics::Counter misses_;
};

} // namespace vaesa

#endif // VAESA_SCHED_CACHING_EVALUATOR_HH
