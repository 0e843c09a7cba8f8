#include "sched/parallel_evaluator.hh"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "util/fault.hh"

namespace vaesa {

namespace {

/** splitmix64 finalizer (value-hash for config dedup). */
std::uint64_t
mixConfigWord(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

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
            h = mixConfigWord(
                h ^ static_cast<std::uint64_t>(
                        config.value(static_cast<HwParam>(p))));
        }
        return static_cast<std::size_t>(h);
    }
};

/**
 * Run body(begin, end) over [0, n) across the pool in work-stealing
 * chunks: workers claim [cursor, cursor+chunk) slices off a shared
 * atomic, each slice writing only its own disjoint outputs (the
 * thread-local view; no lock, no sharing). The "batch_chunk" fault
 * site AND the optional cancellation token fire at the claim point,
 * BEFORE the chunk computes, so an injected kill or an expired
 * deadline surfaces as an exception from parallelFor after in-flight
 * chunks finish — callers must not merge or account anything when
 * this throws (the all-or-nothing batch contract).
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

/**
 * Score configs [0, n) over the whole workload into totals[0, n):
 * each layer is one SoA batch call over the configs still alive,
 * whose results enter their totals, weighted by the layer's count,
 * in layer order with the serial loop's ops. A config leaves at its
 * first invalid layer with zeroed totals, exactly like the serial
 * early exit, so the sums and evaluationCount() both match the
 * serial loop.
 */
void
scoreConfigChunk(const Evaluator &evaluator,
                 const AcceleratorConfig *configs, std::size_t n,
                 const Workload &workload, EvalResult *totals)
{
    std::vector<std::uint32_t> alive(n);
    std::iota(alive.begin(), alive.end(), 0);
    std::vector<AcceleratorConfig> live(configs, configs + n);
    std::vector<EvalResult> layerResults(n);
    for (std::size_t i = 0; i < n; ++i) {
        totals[i] = EvalResult{};
        totals[i].valid = true;
    }
    for (std::size_t li = 0;
         li < workload.layers.size() && !alive.empty(); ++li) {
        const double weight = static_cast<double>(workload.countOf(li));
        evaluator.evaluateLayerBatch(live.data(), alive.size(),
                                     workload.layers[li],
                                     layerResults.data());
        std::size_t kept = 0;
        for (std::size_t j = 0; j < alive.size(); ++j) {
            const EvalResult &r = layerResults[j];
            EvalResult &t = totals[alive[j]];
            if (!r.valid) {
                t = EvalResult{};
                continue;
            }
            t.latencyCycles += weight * r.latencyCycles;
            t.energyPj += weight * r.energyPj;
            alive[kept] = alive[j];
            live[kept] = live[j];
            ++kept;
        }
        alive.resize(kept);
    }
    for (const std::uint32_t i : alive)
        totals[i].edp = totals[i].latencyCycles * totals[i].energyPj;
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
    // Config-major: exact duplicates are folded once per batch, then
    // the pool steals chunks of unique configs (one fork/join per
    // batch) and each chunk walks every layer on its own.
    const std::size_t n = configs.size();
    std::vector<AcceleratorConfig> uniques;
    std::vector<std::uint32_t> slotOf(n);
    std::unordered_map<AcceleratorConfig, std::uint32_t, ConfigHash>
        uniqueOf;
    uniqueOf.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto [it, inserted] = uniqueOf.emplace(
            configs[i], static_cast<std::uint32_t>(uniques.size()));
        if (inserted)
            uniques.push_back(configs[i]);
        slotOf[i] = it->second;
    }

    std::vector<EvalResult> uniqueTotals(uniques.size());
    forEachStolenChunk(uniques.size(), pool, nullptr,
                       [&](std::size_t begin, std::size_t end) {
                           scoreConfigChunk(evaluator,
                                            uniques.data() + begin,
                                            end - begin, workload,
                                            uniqueTotals.data() + begin);
                       });

    std::vector<EvalResult> totals(n);
    for (std::size_t i = 0; i < n; ++i)
        totals[i] = uniqueTotals[slotOf[i]];
    return totals;
}

ParallelEvaluator::ParallelEvaluator(const CachingEvaluator &cache,
                                     ThreadPool &pool)
    : cache_(&cache), pool_(&pool)
{
}

void
ParallelEvaluator::scoreLayerSubset(const AcceleratorConfig *snapped,
                                    const std::uint64_t *configKeys,
                                    const std::uint32_t *idx,
                                    std::size_t m,
                                    const LayerShape &layer,
                                    EvalResult *results) const
{
    if (m == 0)
        return;
    const CachingEvaluator &cache = *cache_;
    const std::uint32_t layerId = cache.layerKey(layer);

    // Pair the hoisted per-config key halves with this layer's id;
    // the snap/pack work itself happened once, at batch entry.
    std::vector<CachingEvaluator::BatchKey> keys(m);
    for (std::size_t j = 0; j < m; ++j)
        keys[j] = CachingEvaluator::BatchKey{configKeys[idx[j]],
                                             layerId};

    // Probe: each shard locked once for the whole batch.
    std::vector<EvalResult> local(m);
    std::vector<unsigned char> found(m, 0);
    cache.probeBatch(keys.data(), m, local.data(), found.data());

    // Dedup the misses (duplicate keys share one evaluation; the
    // serial path would have hit the cache for the repeats, so the
    // hit/miss accounting below still matches it exactly).
    std::unordered_map<CachingEvaluator::BatchKey, std::uint32_t,
                       CachingEvaluator::BatchKeyHash>
        uniqueOf;
    std::vector<std::uint32_t> uniqueRep;
    std::vector<std::uint32_t> missSlot(m, 0);
    for (std::size_t j = 0; j < m; ++j) {
        if (found[j])
            continue;
        const auto [it, inserted] = uniqueOf.emplace(
            keys[j], static_cast<std::uint32_t>(uniqueRep.size()));
        if (inserted)
            uniqueRep.push_back(static_cast<std::uint32_t>(j));
        missSlot[j] = it->second;
    }

    const std::size_t u = uniqueRep.size();
    if (u > 0) {
        std::vector<AcceleratorConfig> uniqueConfigs(u);
        std::vector<CachingEvaluator::BatchKey> uniqueKeys(u);
        for (std::size_t k = 0; k < u; ++k) {
            uniqueConfigs[k] = snapped[idx[uniqueRep[k]]];
            uniqueKeys[k] = keys[uniqueRep[k]];
        }
        // Evaluate outside any lock; throws (an injected batch_chunk
        // fault or an expired cancellation token) propagate from
        // here and skip the merge and accounting below —
        // all-or-nothing.
        std::vector<EvalResult> uniqueResults(u);
        forEachStolenChunk(u, *pool_, cancel_,
                           [&](std::size_t begin, std::size_t end) {
                               cache.inner().evaluateLayerBatch(
                                   uniqueConfigs.data() + begin,
                                   end - begin, layer,
                                   uniqueResults.data() + begin);
                           });

        // Merge the thread-local views once, at batch end.
        cache.insertBatch(uniqueKeys.data(), uniqueResults.data(), u);
        for (std::size_t j = 0; j < m; ++j) {
            if (!found[j])
                local[j] = uniqueResults[missSlot[j]];
        }
    }
    cache.accountBatch(m, u);

    for (std::size_t j = 0; j < m; ++j)
        results[idx[j]] = local[j];
}

std::vector<EvalResult>
ParallelEvaluator::evaluateBatch(
    const std::vector<AcceleratorConfig> &configs,
    const std::vector<LayerShape> &workload) const
{
    return evaluateConfigBatch(configs, workload, nullptr, nullptr);
}

std::vector<EvalResult>
ParallelEvaluator::evaluateConfigBatch(
    const std::vector<AcceleratorConfig> &configs,
    const std::vector<LayerShape> &workload,
    const CancelToken *const *itemTokens,
    BatchItemStatus *statuses) const
{
    const std::size_t n = configs.size();
    std::vector<EvalResult> totals(n);
    for (EvalResult &t : totals)
        t.valid = true;
    if (statuses != nullptr)
        std::fill_n(statuses, n, BatchItemStatus::Ok);

    // Alive mask: a config invalid at layer L stops looking up
    // layers past L, exactly like the serial per-config early exit —
    // this is what keeps cache hit/miss totals identical to the
    // serial path, not just the sums.
    std::vector<std::uint32_t> alive(n);
    std::iota(alive.begin(), alive.end(), 0);

    // Per-item deadlines drop expired items at each layer boundary
    // (including before the first): only the item leaves the batch —
    // its mates keep scoring, and the layers already merged stay in
    // the cache, exactly as a solo request cancelled between layers
    // would leave them.
    const auto dropExpired = [&] {
        if (itemTokens == nullptr)
            return;
        std::vector<std::uint32_t> keep;
        keep.reserve(alive.size());
        for (const std::uint32_t i : alive) {
            const CancelToken *token = itemTokens[i];
            if (token != nullptr && token->expired()) {
                totals[i] = EvalResult{};
                if (statuses != nullptr)
                    statuses[i] = BatchItemStatus::DeadlineExpired;
            } else {
                keep.push_back(i);
            }
        }
        alive.swap(keep);
    };

    // Hoist the layer-independent per-config work: snap each config
    // to its grid point and pack its 59-bit key half ONCE, instead
    // of re-deriving both inside every one of the L layer passes.
    std::vector<AcceleratorConfig> snapped(n);
    std::vector<std::uint64_t> cfgKeys(n);
    for (std::size_t i = 0; i < n; ++i) {
        snapped[i] = cache_->snapConfig(configs[i]);
        cfgKeys[i] = cache_->snappedConfigKey(snapped[i]);
    }

    std::vector<EvalResult> layerResults(n);
    for (const LayerShape &layer : workload) {
        dropExpired();
        if (alive.empty())
            break;
        scoreLayerSubset(snapped.data(), cfgKeys.data(),
                         alive.data(), alive.size(), layer,
                         layerResults.data());

        std::vector<std::uint32_t> next;
        next.reserve(alive.size());
        for (const std::uint32_t i : alive) {
            const EvalResult &r = layerResults[i];
            EvalResult &t = totals[i];
            if (!r.valid) {
                t = EvalResult{};
                continue;
            }
            t.latencyCycles += r.latencyCycles;
            t.energyPj += r.energyPj;
            next.push_back(i);
        }
        alive.swap(next);
    }

    for (EvalResult &t : totals) {
        if (t.valid)
            t.edp = t.latencyCycles * t.energyPj;
    }
    return totals;
}

} // namespace vaesa
