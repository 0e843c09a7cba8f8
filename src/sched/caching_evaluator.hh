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
#include "util/deadline.hh"
#include "util/metrics.hh"
#include "util/sync.hh"

namespace vaesa {

/**
 * Evaluator with a per-(config, layer) memo table. The cache key
 * combines the six grid indices with the layer's index in an
 * internal registry, so any layer object with the same shape hits
 * the same entry.
 *
 * THREAD SAFETY: evaluateWorkload(), the batch protocol and the
 * counter accessors are safe to call concurrently on one instance.
 * The memo table is split into shardCount() shards, each guarded by
 * its own mutex and keyed by the mixed (config, layer) hash, so
 * concurrent lookups of different keys rarely contend; the layer
 * registry is append-only under a shared_mutex (read-mostly);
 * hit/miss counters are sharded relaxed atomics (util/metrics.hh).
 * Shard locks are only held for the table lookup/insert, never
 * across the inner evaluation — two threads missing the same key
 * concurrently both evaluate (the results are deterministic and
 * identical) and the second insert is dropped, so misses() counts
 * inner evaluations performed, which can exceed the number of
 * distinct keys under contention.
 *
 * SHARD SIZING: the shard count is fixed for the instance's
 * lifetime: 4 shards per default pool thread, at least 16, rounded
 * up to a power of two. Contended acquisitions are still counted
 * (the process-wide `cache.shard_contention` metric) but only
 * observed; they do not size the table.
 *
 * BATCH PROTOCOL: the probeBatch()/insertBatch()/accountBatch()
 * primitives let a caller holding MANY keys amortize locking — each
 * shard is locked once per batch instead of once per key, and the
 * caller merges results computed outside any lock (evaluateWorkload
 * below; evaluateCachedBatch in sched/parallel_evaluator.hh). The
 * counters stay exact: accountBatch(lookups, misses) produces the
 * same hit/miss totals the per-key path would have.
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

    /**
     * Memoized per-layer sum, like Evaluator::evaluateWorkload, with
     * ONE cache probe: the config is snapped and keyed once, every
     * layer's key goes into a single probeBatch(), and only the
     * layers the probe missed are computed (and inserted as they
     * are). A shape repeated within @p layers is computed once; its
     * later repeats count as hits. The result is the sum over the
     * layers of Evaluator::evaluateLayer(), in order, on the snapped
     * config (an invalid result at the first invalid layer, which
     * ends the walk), and every layer walked counts as one lookup:
     * a miss when it was computed here, a hit otherwise.
     *
     * @p cancel (may be null) is checked before each missed layer is
     * computed. On expiry the layers walked so far are accounted,
     * the ones already computed stay cached, and DeadlineExceeded is
     * thrown.
     */
    EvalResult evaluateWorkload(const AcceleratorConfig &arch,
                                const std::vector<LayerShape> &layers,
                                const CancelToken *cancel =
                                    nullptr) const;

    /** @name Batch protocol (see class comment)
     *
     * The canonical sequence, per key-set batch:
     *   1. snapConfig() each config, layerKey() each layer, build
     *      BatchKeys from snappedConfigKey() and the layer ids;
     *   2. probeBatch() — one locked pass filling cached results;
     *   3. evaluate the missing keys OUTSIDE any lock (thread-local
     *      result views, one Evaluator::evaluateLayer per key);
     *   4. insertBatch() the freshly computed entries;
     *   5. accountBatch(lookups, misses) once per batch.
     */
    /** @{ */

    /** Snap every hardware parameter to its design-space grid point
     *  (the cache key is the grid index). */
    AcceleratorConfig snapConfig(const AcceleratorConfig &arch) const;

    /** Registry id of @p layer (registering it if new). Stable for
     *  the instance's lifetime. */
    std::uint32_t layerKey(const LayerShape &layer) const
        VAESA_EXCLUDES(registryMutex_);

    /** Config half of a BatchKey for a SNAPPED config — hoist this
     *  once per config when keying it against many layers (it is
     *  layer-independent; the BatchKey pairs it with layerKey()). */
    std::uint64_t snappedConfigKey(
        const AcceleratorConfig &snapped) const;

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

    /** Number of independently locked memo-table shards. */
    std::size_t shardCount() const { return shardCount_; }

    /** The wrapped evaluator. */
    const Evaluator &inner() const { return inner_; }

  private:
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
    /** Append-only shape registry; shared lock to scan, unique to
     *  append. Registered ids are stable. */
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
};

} // namespace vaesa

#endif // VAESA_SCHED_CACHING_EVALUATOR_HH
