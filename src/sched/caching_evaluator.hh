/**
 * @file
 * Memoizing wrapper around the Evaluator. Searches over the discrete
 * design space repeatedly decode to the same snapped configuration
 * (BO exploitation, GA elites, dense latent grids), and the
 * scheduler + cost model evaluation is deterministic -- so caching
 * (config, layer) results is lossless and saves a large fraction of
 * evaluation work at scale.
 */

#ifndef VAESA_SCHED_CACHING_EVALUATOR_HH
#define VAESA_SCHED_CACHING_EVALUATOR_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sched/evaluator.hh"
#include "util/metrics.hh"
#include "util/sync.hh"

namespace vaesa {

/**
 * Evaluator with a per-(config, layer) memo table. The cache key
 * combines the six grid indices with the layer's index in an
 * internal registry, so any layer object with the same shape hits
 * the same entry.
 *
 * THREAD SAFETY: evaluateLayer()/evaluateWorkload() and the counter
 * accessors are safe to call concurrently on one instance. The memo
 * table is split into shardCount() shards, each guarded by its own
 * mutex and keyed by the mixed (config, layer) hash, so concurrent
 * lookups of different keys rarely contend; the layer registry is
 * append-only under a shared_mutex (read-mostly); hit/miss counters
 * are sharded relaxed atomics (util/metrics.hh). Shard locks are
 * only held for the table lookup/insert,
 * never across the inner evaluation — two threads missing the same
 * key concurrently both evaluate (the results are deterministic and
 * identical) and the second insert is dropped, so misses() counts
 * inner evaluations performed, which can exceed the number of
 * distinct keys under contention. clear() is the one exception: it
 * must not run concurrently with evaluations (it resets the layer
 * registry that in-flight lookups have already consulted).
 *
 * SHARD SIZING: the shard count is fixed for the instance's
 * lifetime: 4 shards per default pool thread, at least 16, rounded
 * up to a power of two. Contended acquisitions are still counted
 * (contention(), the `cache.shard_contention` metric) but only
 * observed; they no longer size the table.
 *
 * BATCH PROTOCOL: the probeBatch()/insertBatch()/accountBatch()
 * primitives let a caller holding MANY keys amortize locking — each
 * shard is locked once per batch instead of once per key, and the
 * caller merges results computed outside any lock (the thread-local
 * views of sched/parallel_evaluator.cc). Counter semantics are
 * preserved exactly: accountBatch(lookups, misses) produces the same
 * hit/miss totals the per-key path would have.
 */
class CachingEvaluator
{
  public:
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

    /** Wrap a default-constructed Evaluator. */
    CachingEvaluator();

    /** Wrap an evaluator with explicit cost-model parameters. */
    explicit CachingEvaluator(const Evaluator &inner);

    /** Memoized variant of Evaluator::evaluateLayer. */
    EvalResult evaluateLayer(const AcceleratorConfig &arch,
                             const LayerShape &layer) const;

    /** Memoized per-layer sum, like Evaluator::evaluateWorkload. */
    EvalResult evaluateWorkload(const AcceleratorConfig &arch,
                                const std::vector<LayerShape>
                                    &layers) const;

    /** @name Batch protocol (see class comment)
     *
     * The canonical sequence, per (layer, key-set) batch:
     *   1. snapConfig() each config, layerKey() the layer, build
     *      BatchKeys from snappedConfigKey() and the layer id;
     *   2. probeBatch() — one locked pass filling cached results;
     *   3. evaluate the missing keys OUTSIDE any lock (thread-local
     *      result views, e.g. via Evaluator::evaluateLayerBatch);
     *   4. insertBatch() the freshly computed entries;
     *   5. accountBatch(lookups, misses) once per batch.
     */
    /** @{ */

    /** Snap every hardware parameter to its design-space grid point
     *  (the cache key is the grid index). */
    AcceleratorConfig snapConfig(const AcceleratorConfig &arch) const;

    /** Registry id of @p layer (registering it if new). Stable until
     *  clear(). */
    std::uint32_t layerKey(const LayerShape &layer) const
        VAESA_EXCLUDES(registryMutex_);

    /** Config half of a BatchKey for a SNAPPED config — hoist this
     *  once per config when keying it against many layers (it is
     *  layer-independent; the BatchKey pairs it with layerKey()). */
    std::uint64_t snappedConfigKey(
        const AcceleratorConfig &snapped) const
    {
        return configKey(snapped);
    }

    /**
     * Locked-once-per-shard lookup of keys [0, n): found[i] is
     * nonzero iff keys[i] was cached, in which case results[i] holds
     * the cached value. Does NOT touch the hit/miss counters — call
     * accountBatch() once the batch completes.
     */
    void probeBatch(const BatchKey *keys, std::size_t n,
                    EvalResult *results,
                    unsigned char *found) const;

    /**
     * Locked-once-per-shard insert of n freshly computed entries;
     * entries whose key raced in via another thread are dropped
     * (results are deterministic, so both copies are identical).
     * Does NOT touch the counters.
     */
    void insertBatch(const BatchKey *keys, const EvalResult *results,
                     std::size_t n) const;

    /**
     * Fold one batch into the hit/miss counters: @p lookups keys
     * were probed, @p misses of them were evaluated by the caller.
     * Identical totals to the per-key path (hits = lookups - misses,
     * and misses still count inner evaluations performed).
     */
    void accountBatch(std::uint64_t lookups,
                      std::uint64_t misses) const;

    /** @} */

    /** Number of cache hits so far. */
    std::uint64_t hits() const { return hits_.value(); }

    /** Number of cache misses (real inner evaluations) so far. */
    std::uint64_t misses() const { return misses_.value(); }

    /** Entries dropped by clear() over this instance's lifetime. */
    std::uint64_t evictions() const { return evictions_.value(); }

    /**
     * Shard-lock acquisitions that found the lock already held
     * (summed over shards). A rising ratio of contention() to
     * hits()+misses() means the shard count no longer matches the
     * thread count.
     */
    std::uint64_t contention() const;

    /** Number of independently locked memo-table shards. */
    std::size_t shardCount() const { return shardCount_; }

    /**
     * Drop all cached entries, the layer registry, and both
     * counters. NOT safe concurrently with evaluateLayer(); quiesce
     * the pool first.
     */
    void clear() VAESA_EXCLUDES(registryMutex_);

    /** The wrapped evaluator. */
    const Evaluator &inner() const { return inner_; }

  private:
    /** One independently locked slice of the memo table. */
    struct Shard
    {
        mutable Mutex shardMutex;
        std::unordered_map<BatchKey, EvalResult, BatchKeyHash> entries
            VAESA_GUARDED_BY(shardMutex);
        /** Lock acquisitions that had to wait (try_lock failed). */
        mutable metrics::Counter contention;
    };

    /** Lock shard.shardMutex, counting contended acquisitions. */
    static void lockShard(const Shard &shard)
        VAESA_ACQUIRE(shard.shardMutex);

    std::uint64_t configKey(const AcceleratorConfig &arch) const;

    Evaluator inner_;
    /** Append-only shape registry; shared lock to scan, unique to
     *  append. Registered ids are stable until clear(). */
    mutable SharedMutex registryMutex_;
    mutable std::vector<LayerShape> layerRegistry_
        VAESA_GUARDED_BY(registryMutex_);
    /** Fixed-size shard array (Shard holds a Mutex, so the array is
     *  heap-built in place). */
    const std::size_t shardCount_;
    const std::unique_ptr<Shard[]> shards_;
    // Sharded metrics counters (util/metrics.hh) instead of ad-hoc
    // atomics: same relaxed-increment semantics, but writers on
    // different cores stop bouncing one cache line, and the values
    // are mirrored into the process-wide registry ("cache.*") for
    // the run manifest.
    mutable metrics::Counter hits_;
    mutable metrics::Counter misses_;
    mutable metrics::Counter evictions_;
};

} // namespace vaesa

#endif // VAESA_SCHED_CACHING_EVALUATOR_HH
