#include "sched/caching_evaluator.hh"

#include <algorithm>

#include "util/contracts.hh"
#include "util/logging.hh"
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

/** splitmix64 finalizer: full-avalanche 64-bit mix. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** Process-wide mirrors of the per-instance cache counters. */
struct GlobalCacheMetrics
{
    metrics::Counter &hits = metrics::counter("cache.hit");
    metrics::Counter &misses = metrics::counter("cache.miss");
    metrics::Counter &evictions = metrics::counter("cache.evict");
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
    std::vector<std::uint32_t> start;
    std::vector<std::uint32_t> order;
};

ShardBuckets
bucketByShard(const CachingEvaluator::BatchKey *keys, std::size_t n,
              std::size_t shardCount)
{
    std::vector<std::uint32_t> shardOf(n);
    ShardBuckets b{std::vector<std::uint32_t>(shardCount + 1, 0),
                   std::vector<std::uint32_t>(n)};
    for (std::size_t i = 0; i < n; ++i) {
        shardOf[i] = static_cast<std::uint32_t>(
            CachingEvaluator::BatchKeyHash{}(keys[i]) % shardCount);
        ++b.start[shardOf[i] + 1];
    }
    for (std::size_t s = 0; s < shardCount; ++s)
        b.start[s + 1] += b.start[s];
    std::vector<std::uint32_t> cursor(b.start.begin(),
                                      b.start.end() - 1);
    for (std::size_t i = 0; i < n; ++i)
        b.order[cursor[shardOf[i]]++] = static_cast<std::uint32_t>(i);
    return b;
}

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

CachingEvaluator::CachingEvaluator()
    : CachingEvaluator(Evaluator())
{
}

CachingEvaluator::CachingEvaluator(const Evaluator &inner)
    : inner_(inner), shardCount_(fixedShardCount()),
      shards_(new Shard[shardCount_])
{
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

std::uint32_t
CachingEvaluator::layerKey(const LayerShape &layer) const
{
    {
        const ReaderLock lock(registryMutex_);
        for (std::uint32_t i = 0; i < layerRegistry_.size(); ++i)
            if (layerRegistry_[i].sameShape(layer))
                return i;
    }
    const WriterLock lock(registryMutex_);
    // Re-scan under the exclusive lock: another thread may have
    // registered the same shape between the two lock scopes.
    for (std::uint32_t i = 0; i < layerRegistry_.size(); ++i)
        if (layerRegistry_[i].sameShape(layer))
            return i;
    layerRegistry_.push_back(layer);
    return static_cast<std::uint32_t>(layerRegistry_.size() - 1);
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
CachingEvaluator::evaluateLayer(const AcceleratorConfig &arch,
                                const LayerShape &layer) const
{
    // A one-layer workload: 0.0 + x == x and the edp is the layer's
    // own latency * energy, so its total is the layer's result.
    return evaluateWorkload(arch, {layer});
}

EvalResult
CachingEvaluator::evaluateWorkload(const AcceleratorConfig &arch,
                                   const std::vector<LayerShape> &layers,
                                   const CancelToken *cancel) const
{
    // Snap to the grid first (the cache key is the grid index, and
    // off-grid values would alias the snapped point), and key the
    // config once: the keys differ only by layer.
    const AcceleratorConfig snapped = snapConfig(arch);
    const std::uint64_t config = snappedConfigKey(snapped);
    const std::size_t n = layers.size();
    std::vector<BatchKey> keys(n);
    for (std::size_t i = 0; i < n; ++i)
        keys[i] = BatchKey{config, layerKey(layers[i])};
    std::vector<EvalResult> results(n);
    std::vector<unsigned char> found(n);
    probeBatch(keys.data(), n, results.data(), found.data());

    // Walk the layers in order, exactly like an evaluateLayer() loop:
    // the same sums, the same early exit, the same hit/miss totals.
    EvalResult total;
    total.valid = true;
    std::uint64_t computed = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!found[i]) {
            if (cancel != nullptr && cancel->expired()) {
                accountBatch(i, computed);
                throw DeadlineExceeded("cache_miss");
            }
            // Computed outside any shard lock: a concurrent miss of
            // the same key recomputes the identical deterministic
            // result, and the second insert is dropped.
            results[i] = inner_.evaluateLayer(snapped, layers[i]);
            insertBatch(&keys[i], &results[i], 1);
            ++computed;
            // Later repeats of this shape hit what was just computed.
            for (std::size_t j = i + 1; j < n; ++j) {
                if (keys[j].layer == keys[i].layer) {
                    results[j] = results[i];
                    found[j] = 1;
                }
            }
        }
        const EvalResult &r = results[i];
        if (!r.valid) {
            accountBatch(i + 1, computed);
            return EvalResult{};
        }
        total.latencyCycles += r.latencyCycles;
        total.energyPj += r.energyPj;
    }
    accountBatch(n, computed);
    total.edp = total.latencyCycles * total.energyPj;
    return total;
}

void
CachingEvaluator::probeBatch(const BatchKey *keys, std::size_t n,
                             EvalResult *results,
                             unsigned char *found) const
{
    if (n == 0)
        return;
    const auto [start, order] = bucketByShard(keys, n, shardCount_);
    for (std::size_t s = 0; s < shardCount_; ++s) {
        if (start[s] == start[s + 1])
            continue;
        Shard &shard = shards_[s];
        lockShard(shard);
        const MutexLock lock(shard.shardMutex, adoptLock);
        for (std::uint32_t o = start[s]; o < start[s + 1]; ++o) {
            const std::uint32_t i = order[o];
            const auto it = shard.entries.find(keys[i]);
            if (it != shard.entries.end()) {
                results[i] = it->second;
                found[i] = 1;
            } else {
                found[i] = 0;
            }
        }
    }
}

void
CachingEvaluator::insertBatch(const BatchKey *keys,
                              const EvalResult *results,
                              std::size_t n) const
{
    if (n == 0)
        return;
    const auto [start, order] = bucketByShard(keys, n, shardCount_);
    for (std::size_t s = 0; s < shardCount_; ++s) {
        if (start[s] == start[s + 1])
            continue;
        Shard &shard = shards_[s];
        lockShard(shard);
        const MutexLock lock(shard.shardMutex, adoptLock);
        for (std::uint32_t o = start[s]; o < start[s + 1]; ++o) {
            const std::uint32_t i = order[o];
            shard.entries.emplace(keys[i], results[i]); // keep first
        }
    }
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
    shard.contention.inc();
    globalCacheMetrics().contention.inc();
    shard.shardMutex.lock();
}

std::uint64_t
CachingEvaluator::contention() const
{
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < shardCount_; ++s)
        total += shards_[s].contention.value();
    return total;
}

void
CachingEvaluator::clear()
{
    const WriterLock lock(registryMutex_);
    std::uint64_t dropped = 0;
    for (std::size_t s = 0; s < shardCount_; ++s) {
        Shard &shard = shards_[s];
        const MutexLock shardLock(shard.shardMutex);
        dropped += shard.entries.size();
        shard.entries.clear();
    }
    layerRegistry_.clear();
    if (dropped > 0) {
        evictions_.inc(dropped);
        globalCacheMetrics().evictions.inc(dropped);
    }
    hits_.reset();
    misses_.reset();
}

} // namespace vaesa
