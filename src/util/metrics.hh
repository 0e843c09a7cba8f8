/**
 * @file
 * Process-wide, thread-safe metrics: monotonic counters, gauges, and
 * latency histograms with fixed log-spaced (power-of-two) buckets.
 *
 * Design constraints (the PR 2 locking contract extends to here):
 *  - no allocation and no lock on the hot path: increments are relaxed
 *    atomic adds into a per-thread shard, histograms index a fixed
 *    bucket array, and instrument sites cache their registry
 *    references once;
 *  - instruments are valid for the life of the process: the registry
 *    never removes or reallocates an instrument, so references handed
 *    out by counter()/gauge()/histogram() stay stable across
 *    concurrent registration;
 *  - wall-clock reads are the expensive part of timing, so every
 *    timing helper is gated on metricsEnabled() and collapses to a
 *    relaxed bool load when observability is off.
 *
 * This header (and trace.hh) is the only sanctioned place outside
 * benches for steady_clock timing: tools/check bans raw
 * `std::chrono::steady_clock` in src/ outside src/util/, so all
 * instrumentation flows through monotonicNowNs()/ScopedTimer and
 * shows up in the exported run manifest instead of ad-hoc prints.
 */

#ifndef VAESA_UTIL_METRICS_HH
#define VAESA_UTIL_METRICS_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace vaesa::metrics {

/** True when timing instrumentation is active (default: off). */
bool metricsEnabled();

/** Turn timing instrumentation on or off process-wide. */
void setMetricsEnabled(bool enabled);

/** Nanoseconds on the monotonic clock since the first call. */
std::uint64_t monotonicNowNs();

/** Stable per-thread shard index in [0, Counter::numSlots). */
unsigned threadSlot();

/**
 * Monotonic counter. Increments go to a cache-line-padded per-thread
 * shard (picked by threadSlot()), so concurrent writers on different
 * cores do not bounce one line; value() sums the shards. Increments
 * are always live — a counter costs one relaxed add whether or not
 * metricsEnabled() — only *timing* is gated.
 */
class Counter
{
  public:
    /** Number of independently padded increment slots. */
    static constexpr unsigned numSlots = 8;

    /** Add n (relaxed; never decreases). */
    void inc(std::uint64_t n = 1)
    {
        slots_[threadSlot()].value.fetch_add(
            n, std::memory_order_relaxed);
    }

    /** Sum of all shards. */
    std::uint64_t value() const
    {
        std::uint64_t sum = 0;
        for (const Slot &slot : slots_)
            sum += slot.value.load(std::memory_order_relaxed);
        return sum;
    }

    /** Zero every shard (tests and benches only). */
    void reset()
    {
        for (Slot &slot : slots_)
            slot.value.store(0, std::memory_order_relaxed);
    }

  private:
    struct alignas(64) Slot
    {
        std::atomic<std::uint64_t> value{0};
    };

    Slot slots_[numSlots];
};

/** Last-writer-wins double value (loss, queue depth, utilization). */
class Gauge
{
  public:
    /** Set the current value. */
    void set(double value)
    {
        value_.store(value, std::memory_order_relaxed);
    }

    /** Add a (possibly negative) delta atomically. */
    void add(double delta)
    {
        double cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(
            cur, cur + delta, std::memory_order_relaxed,
            std::memory_order_relaxed)) {
        }
    }

    /** Current value. */
    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Reset to zero. */
    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Latency histogram over fixed log-spaced buckets: observation v
 * lands in bucket floor(log2(v)) + 1 (v == 0 in bucket 0), so bucket
 * i covers [2^(i-1), 2^i). 64 buckets span the full u64 range — no
 * allocation, no lock, and any nanosecond latency fits.
 */
class Histogram
{
  public:
    /** Number of fixed buckets. */
    static constexpr unsigned numBuckets = 65;

    /** Record one observation (relaxed atomics throughout). */
    void observe(std::uint64_t value);

    /** Number of observations. */
    std::uint64_t count() const;

    /** Sum of all observations. */
    std::uint64_t sum() const;

    /** Smallest observation (0 when empty). */
    std::uint64_t min() const;

    /** Largest observation (0 when empty). */
    std::uint64_t max() const;

    /** Observations in bucket i. */
    std::uint64_t bucketCount(unsigned i) const;

    /** Inclusive lower bound of bucket i (0, then 2^(i-1)). */
    static std::uint64_t bucketLowerBound(unsigned i);

    /**
     * Bucket-resolution quantile estimate: the upper bound of the
     * bucket holding the q-th observation (0 when empty).
     * @param q quantile in [0, 1].
     */
    std::uint64_t quantile(double q) const;

  private:
    std::atomic<std::uint64_t> buckets_[numBuckets]{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max_{0};
};

/**
 * Look up (or create) the named process-wide instrument. References
 * are stable for the process lifetime; call sites should resolve once
 * (static local or member) and reuse. Names are dotted lowercase
 * paths, e.g. "cache.hit" — see docs/OBSERVABILITY.md for the
 * taxonomy.
 */
Counter &counter(const std::string &name);
Gauge &gauge(const std::string &name);
Histogram &histogram(const std::string &name);

/** One exported instrument (snapshot of the registry). */
struct MetricSample
{
    /** Registered dotted name. */
    std::string name;

    /** "counter", "gauge", or "histogram". */
    std::string kind;

    /** Counter value (counters only). */
    std::uint64_t count = 0;

    /** Gauge value (gauges only). */
    double value = 0.0;

    /** The histogram itself (histograms only; borrowed). */
    const Histogram *histogram = nullptr;
};

/** Name-sorted snapshot of every registered instrument. */
std::vector<MetricSample> snapshot();

/**
 * RAII wall-time recorder: observes the elapsed nanoseconds into the
 * histogram at scope exit. When metricsEnabled() is false the
 * constructor skips the clock read and the destructor does nothing,
 * so a disabled timer costs one relaxed bool load.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Histogram &hist)
        : hist_(hist), armed_(metricsEnabled()),
          startNs_(armed_ ? monotonicNowNs() : 0)
    {
    }

    ~ScopedTimer()
    {
        if (armed_)
            hist_.observe(monotonicNowNs() - startNs_);
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Histogram &hist_;
    bool armed_;
    std::uint64_t startNs_;
};

/** `git describe` of the compiled tree ("unknown" outside git). */
const char *gitDescribe();

/** FNV-1a 64-bit hash, used for run-manifest config hashes. */
std::uint64_t fnv1a(const std::string &text);

/** Identity of one run, stamped into the exported manifest. */
struct ManifestInfo
{
    /** Producing tool, e.g. "vaesa_cli". */
    std::string tool;

    /** Subcommand or bench name, e.g. "train". */
    std::string command;

    /** Full command line (joined argv), hashed into configHash. */
    std::string commandLine;

    /** RNG seed of the run. */
    std::uint64_t seed = 0;
};

/**
 * Serialize the versioned run manifest: run identity (tool, command,
 * config hash, seed, git describe) plus every registered counter,
 * gauge, and histogram. Schema documented in docs/OBSERVABILITY.md
 * and locked by tests/util/test_metrics.cc.
 */
std::string manifestJson(const ManifestInfo &info);

/**
 * Write manifestJson() to path via the crash-safe atomicWriteFile()
 * path. @return true on success (failures are warn()ed).
 */
bool writeManifest(const std::string &path, const ManifestInfo &info);

} // namespace vaesa::metrics

#endif // VAESA_UTIL_METRICS_HH
