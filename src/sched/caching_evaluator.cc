#include "sched/caching_evaluator.hh"

#include <algorithm>

#include "util/contracts.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace vaesa {

namespace {

/** Per-parameter index widths of the perfect cache-key packing. */
constexpr int keyBits[numHwParams] = {3, 6, 7, 15, 11, 17};

constexpr int
totalKeyBits()
{
    int sum = 0;
    for (int b : keyBits)
        sum += b;
    return sum;
}

// The packing is only collision-free while every index fits its
// field and the fields fit one 64-bit word. Growing the design space
// must widen these constants in lock-step.
static_assert(totalKeyBits() <= 64,
              "cache key no longer fits in 64 bits");
static_assert(numHwParams == 6,
              "keyBits must list one width per hardware parameter");

/** Process-wide mirrors of the per-instance cache counters. */
struct GlobalCacheMetrics
{
    metrics::Counter &hits = metrics::counter("cache.hit");
    metrics::Counter &misses = metrics::counter("cache.miss");
    metrics::Counter &contention =
        metrics::counter("cache.shard_contention");
};

GlobalCacheMetrics &
globalCacheMetrics()
{
    static GlobalCacheMetrics m;
    return m;
}

/**
 * Bucket n keys by shard with a counting sort, so probeBatch() and
 * insertBatch() lock each shard exactly once per batch regardless of
 * n: the keys of shard s are keys[order[o]] for o in
 * [start[s], start[s + 1]), in input order.
 */
struct ShardBuckets
{
    std::vector<std::uint32_t> shardOf;
    std::vector<std::uint32_t> start;
    std::vector<std::uint32_t> order;
    std::vector<std::uint32_t> cursor;
};

/** Fill this thread's ShardBuckets for keys [0, n); @p shardCount
 *  is a power of two. The buffers are reused call to call, so a warm
 *  call does not touch the heap; the result is valid until the
 *  thread's next call. */
template <class Key, class Hash>
const ShardBuckets &
bucketByShard(const Key *keys, std::size_t n, std::size_t shardCount,
              Hash hash)
{
    thread_local ShardBuckets b;
    b.shardOf.resize(n);
    b.start.assign(shardCount + 1, 0);
    b.order.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        b.shardOf[i] =
            static_cast<std::uint32_t>(hash(keys[i]) & (shardCount - 1));
        ++b.start[b.shardOf[i] + 1];
    }
    for (std::size_t s = 0; s < shardCount; ++s)
        b.start[s + 1] += b.start[s];
    b.cursor.assign(b.start.begin(), b.start.end() - 1);
    for (std::size_t i = 0; i < n; ++i)
        b.order[b.cursor[b.shardOf[i]]++] = static_cast<std::uint32_t>(i);
    return b;
}

/** Registry id of a shape not (yet) in the registry. */
constexpr std::uint32_t unregistered = ~std::uint32_t{0};

std::size_t
roundUpPow2(std::size_t x)
{
    std::size_t p = 1;
    while (p < x)
        p <<= 1;
    return p;
}

/** 4 shards per default pool thread, at least 16, as a power of two:
 *  the expected number of threads per shard lock stays well under
 *  one even with a skewed key mix. */
std::size_t
fixedShardCount()
{
    return roundUpPow2(std::max<std::size_t>(
        16, 4 * ThreadPool::defaultThreadCount()));
}

} // namespace

std::size_t
CachingEvaluator::BatchKeyHash::operator()(const BatchKey &key) const
{
    // One avalanche over both fields: the config packing is dense in
    // the low bits, so the raw key would shard/bucket poorly.
    return static_cast<std::size_t>(
        mix64(key.config ^
              (static_cast<std::uint64_t>(key.layer) << 59)));
}

std::size_t
CachingEvaluator::ShapeDimsHash::operator()(const ShapeDims &dims) const
{
    // A multiply per dimension, one avalanche at the end.
    std::uint64_t h = 0;
    for (const std::int64_t d : dims)
        h = (h ^ static_cast<std::uint64_t>(d)) * 0x9e3779b97f4a7c15ull;
    return static_cast<std::size_t>(mix64(h));
}

CachingEvaluator::CachingEvaluator()
    : CachingEvaluator(Evaluator())
{
}

CachingEvaluator::CachingEvaluator(const Evaluator &inner)
    : inner_(inner), shardCount_(fixedShardCount()),
      shards_(new Shard[shardCount_])
{
    VAESA_EXPECT((shardCount_ & (shardCount_ - 1)) == 0,
                 "shard count ", shardCount_,
                 " is not a power of two; bucketByShard masks hashes");
}

std::uint64_t
CachingEvaluator::snappedConfigKey(const AcceleratorConfig &snapped) const
{
    // Pack the six grid indices into 59 bits (3+6+7+15+11+17).
    const auto idx = designSpace().toIndices(snapped);
    std::uint64_t key = 0;
    for (int p = 0; p < numHwParams; ++p) {
        VAESA_EXPECT(idx[p] >= 0 &&
                         idx[p] < (std::int64_t{1} << keyBits[p]),
                     "grid index ", idx[p], " overflows the ",
                     keyBits[p], "-bit cache-key field of parameter ",
                     p, "; the memo table would alias entries");
        key = (key << keyBits[p]) |
              static_cast<std::uint64_t>(idx[p]);
    }
    return key;
}

void
CachingEvaluator::layerKeys(const std::vector<LayerShape> &layers,
                            std::uint64_t config, BatchKey *keys) const
{
    auto dimsOf = [](const LayerShape &l) {
        // The fields LayerShape::sameShape() compares.
        return ShapeDims{l.r, l.s, l.p, l.q, l.c, l.k, l.strideW,
                         l.strideH};
    };
    bool missing = false;
    {
        const ReaderLock lock(registryMutex_);
        for (std::size_t i = 0; i < layers.size(); ++i) {
            const auto it = layerIds_.find(dimsOf(layers[i]));
            keys[i] = BatchKey{config, it == layerIds_.end()
                                           ? unregistered
                                           : it->second};
            missing |= keys[i].layer == unregistered;
        }
    }
    if (!missing)
        return;
    const WriterLock lock(registryMutex_);
    // Look again under the exclusive lock: another thread may have
    // registered the same shape between the two lock scopes, and a
    // shape repeated in the row is registered by its first copy.
    for (std::size_t i = 0; i < layers.size(); ++i) {
        if (keys[i].layer != unregistered)
            continue;
        const std::uint32_t next =
            static_cast<std::uint32_t>(layerIds_.size());
        keys[i].layer =
            layerIds_.try_emplace(dimsOf(layers[i]), next).first->second;
    }
}

AcceleratorConfig
CachingEvaluator::snapConfig(const AcceleratorConfig &arch) const
{
    AcceleratorConfig snapped = arch;
    const DesignSpace &ds = designSpace();
    for (int p = 0; p < numHwParams; ++p) {
        const auto param = static_cast<HwParam>(p);
        snapped.setValue(param,
                         ds.snapValue(param, arch.value(param)));
    }
    return snapped;
}

EvalResult
CachingEvaluator::evaluateWorkload(const AcceleratorConfig &arch,
                                   const Workload &workload,
                                   const CancelToken *cancel) const
{
    const std::vector<LayerShape> &layers = workload.layers;
    // Snap to the grid first (the cache key is the grid index, and
    // off-grid values would alias the snapped point), and key the
    // config once: the keys differ only by layer.
    const AcceleratorConfig snapped = snapConfig(arch);
    const std::size_t n = layers.size();
    // The row's buffers are this thread's, reused call to call, so a
    // call that hits every layer does not touch the heap. Nothing
    // under the walk re-enters the cache, so one set per thread
    // suffices.
    struct RowScratch
    {
        std::vector<BatchKey> keys;
        std::vector<EvalResult> results;
        std::vector<unsigned char> state;
    };
    thread_local RowScratch row;
    row.keys.resize(n);
    row.results.resize(n);
    row.state.resize(n);
    layerKeys(layers, snappedConfigKey(snapped), row.keys.data());
    probeBatch(row.keys.data(), n, row.results.data(),
               row.state.data());
    const RowWalk walk =
        walkRow(snapped, layers, workload.counts, row.keys.data(),
                row.results.data(), row.state.data(), cancel);
    accountBatch(walk.walked,
                 insertBatch(row.keys.data(), row.results.data(),
                             row.state.data(), n));
    if (walk.stopped)
        throw DeadlineExceeded("cache_miss");
    return walk.total;
}

CachingEvaluator::RowWalk
CachingEvaluator::walkRow(const AcceleratorConfig &snapped,
                          const std::vector<LayerShape> &layers,
                          const std::vector<std::int64_t> &counts,
                          const BatchKey *keys, EvalResult *results,
                          unsigned char *state,
                          const CancelToken *cancel) const
{
    VAESA_EXPECT(counts.empty() || counts.size() == layers.size(),
                 "Workload: counts/layers size mismatch");
    RowWalk walk;
    walk.total.valid = true;
    std::uint64_t computed = 0;
    for (; walk.walked < layers.size(); ++walk.walked) {
        const std::size_t i = walk.walked;
        if (state[i] == cellMissed) {
            // A repeat of an earlier shape copies its cell; only a
            // shape new to the row is computed, outside any lock.
            const std::size_t first =
                static_cast<std::size_t>(std::find(keys, keys + i,
                                                   keys[i]) -
                                         keys);
            if (first < i) {
                results[i] = results[first];
                state[i] = cellFound;
            } else if (cancel != nullptr && cancel->expired()) {
                walk.stopped = true;
                break;
            } else {
                results[i] = inner_.scoreLayer(snapped, layers[i]);
                state[i] = cellComputed;
                ++computed;
            }
        }
        const EvalResult &r = results[i];
        if (!r.valid) {
            ++walk.walked;
            walk.total = EvalResult{};
            break;
        }
        const double weight =
            counts.empty() ? 1.0 : static_cast<double>(counts[i]);
        walk.total.latencyCycles += weight * r.latencyCycles;
        walk.total.energyPj += weight * r.energyPj;
    }
    inner_.countEvaluations(computed);
    walk.total.edp = walk.total.latencyCycles * walk.total.energyPj;
    return walk;
}

void
CachingEvaluator::probeBatch(const BatchKey *keys, std::size_t n,
                             EvalResult *results,
                             unsigned char *state) const
{
    if (n == 0)
        return;
    const ShardBuckets &b =
        bucketByShard(keys, n, shardCount_, BatchKeyHash{});
    for (std::size_t s = 0; s < shardCount_; ++s) {
        if (b.start[s] == b.start[s + 1])
            continue;
        Shard &shard = shards_[s];
        lockShard(shard);
        const MutexLock lock(shard.shardMutex, adoptLock);
        for (std::uint32_t o = b.start[s]; o < b.start[s + 1]; ++o) {
            const std::uint32_t i = b.order[o];
            const auto it = shard.entries.find(keys[i]);
            if (it != shard.entries.end()) {
                results[i] = it->second;
                state[i] = cellFound;
            } else {
                state[i] = cellMissed;
            }
        }
    }
}

std::size_t
CachingEvaluator::insertBatch(const BatchKey *keys,
                              const EvalResult *results,
                              const unsigned char *state,
                              std::size_t n) const
{
    std::vector<BatchKey> fresh;
    std::vector<EvalResult> values;
    for (std::size_t i = 0; i < n; ++i) {
        if (state[i] == cellComputed) {
            fresh.push_back(keys[i]);
            values.push_back(results[i]);
        }
    }
    if (fresh.empty())
        return 0;
    const ShardBuckets &b = bucketByShard(
        fresh.data(), fresh.size(), shardCount_, BatchKeyHash{});
    for (std::size_t s = 0; s < shardCount_; ++s) {
        if (b.start[s] == b.start[s + 1])
            continue;
        Shard &shard = shards_[s];
        lockShard(shard);
        const MutexLock lock(shard.shardMutex, adoptLock);
        for (std::uint32_t o = b.start[s]; o < b.start[s + 1]; ++o) {
            const std::uint32_t i = b.order[o];
            shard.entries.emplace(fresh[i], values[i]); // keep first
        }
    }
    return fresh.size();
}

void
CachingEvaluator::accountBatch(std::uint64_t lookups,
                               std::uint64_t misses) const
{
    VAESA_EXPECT(misses <= lookups,
                 "accountBatch: ", misses, " misses out of ", lookups,
                 " lookups");
    const std::uint64_t hits = lookups - misses;
    if (hits > 0) {
        hits_.inc(hits);
        globalCacheMetrics().hits.inc(hits);
    }
    if (misses > 0) {
        misses_.inc(misses);
        globalCacheMetrics().misses.inc(misses);
    }
}

void
CachingEvaluator::lockShard(const Shard &shard)
{
    // try_lock first purely to observe contention; the blocking lock
    // below is what actually serializes. The counter increment is a
    // relaxed sharded add, cheap enough for the lookup path.
    if (shard.shardMutex.try_lock())
        return;
    globalCacheMetrics().contention.inc();
    shard.shardMutex.lock();
}

} // namespace vaesa
