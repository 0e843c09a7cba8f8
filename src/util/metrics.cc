#include "util/metrics.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>

#include "util/atomic_io.hh"
#include "util/logging.hh"
#include "util/sync.hh"

#ifndef VAESA_GIT_DESCRIBE
#define VAESA_GIT_DESCRIBE "unknown"
#endif

namespace vaesa::metrics {

namespace {

std::atomic<bool> enabled{false};

/**
 * Registry backing store. node-based maps keep instrument addresses
 * stable forever; instruments are never erased, so references stay
 * valid for the life of the process. Leaked on purpose: instrument
 * sites cache references in function-local statics whose destruction
 * order against this singleton would otherwise be undefined.
 */
struct Registry
{
    Mutex metricsMutex;
    std::map<std::string, std::unique_ptr<Counter>> counters
        VAESA_GUARDED_BY(metricsMutex);
    std::map<std::string, std::unique_ptr<Gauge>> gauges
        VAESA_GUARDED_BY(metricsMutex);
    std::map<std::string, std::unique_ptr<Histogram>> histograms
        VAESA_GUARDED_BY(metricsMutex);
};

Registry &
registry()
{
    static Registry *r = new Registry;
    return *r;
}

void
appendEscaped(std::string &out, const std::string &text)
{
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

void
appendJsonString(std::string &out, const std::string &text)
{
    out += '"';
    appendEscaped(out, text);
    out += '"';
}

void
appendU64(std::string &out, std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
    out += buf;
}

void
appendDouble(std::string &out, double value)
{
    char buf[64];
    // %.17g round-trips doubles; NaN/Inf are not valid JSON, so map
    // them to null (gauges start life as 0.0, this is belt-and-braces).
    if (value != value) {
        out += "null";
        return;
    }
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += buf;
}

} // namespace

bool
metricsEnabled()
{
    return enabled.load(std::memory_order_relaxed);
}

void
setMetricsEnabled(bool on)
{
    enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t
monotonicNowNs()
{
    // One fixed epoch per process so timestamps from every thread are
    // mutually comparable (and trace spans sort monotonically).
    static const std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
}

unsigned
threadSlot()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned slot =
        next.fetch_add(1, std::memory_order_relaxed) %
        Counter::numSlots;
    return slot;
}

void
Histogram::observe(std::uint64_t value)
{
    const unsigned bucket =
        value == 0 ? 0
                   : static_cast<unsigned>(std::bit_width(value));
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t seen = min_.load(std::memory_order_relaxed);
    while (value < seen &&
           !min_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
}

std::uint64_t
Histogram::count() const
{
    return count_.load(std::memory_order_relaxed);
}

std::uint64_t
Histogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

std::uint64_t
Histogram::min() const
{
    return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
}

std::uint64_t
Histogram::max() const
{
    return max_.load(std::memory_order_relaxed);
}

std::uint64_t
Histogram::bucketCount(unsigned i) const
{
    return i < numBuckets
               ? buckets_[i].load(std::memory_order_relaxed)
               : 0;
}

std::uint64_t
Histogram::bucketLowerBound(unsigned i)
{
    if (i == 0)
        return 0;
    return std::uint64_t{1} << (i - 1);
}

std::uint64_t
Histogram::quantile(double q) const
{
    const std::uint64_t n = count();
    if (n == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(n - 1));
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < numBuckets; ++i) {
        seen += bucketCount(i);
        if (seen > rank) {
            // Upper bound of the bucket, clamped to the observed max.
            const std::uint64_t hi =
                i + 1 < numBuckets ? bucketLowerBound(i + 1) - 1
                                   : ~std::uint64_t{0};
            return std::min(hi, max());
        }
    }
    return max();
}

Counter &
counter(const std::string &name)
{
    Registry &r = registry();
    const MutexLock lock(r.metricsMutex);
    auto &slot = r.counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
gauge(const std::string &name)
{
    Registry &r = registry();
    const MutexLock lock(r.metricsMutex);
    auto &slot = r.gauges[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
histogram(const std::string &name)
{
    Registry &r = registry();
    const MutexLock lock(r.metricsMutex);
    auto &slot = r.histograms[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

std::vector<MetricSample>
snapshot()
{
    Registry &r = registry();
    const MutexLock lock(r.metricsMutex);
    std::vector<MetricSample> out;
    out.reserve(r.counters.size() + r.gauges.size() +
                r.histograms.size());
    for (const auto &[name, c] : r.counters)
        out.push_back({name, "counter", c->value(), 0.0, nullptr});
    for (const auto &[name, g] : r.gauges)
        out.push_back({name, "gauge", 0, g->value(), nullptr});
    for (const auto &[name, h] : r.histograms)
        out.push_back({name, "histogram", 0, 0.0, h.get()});
    return out;
}

const char *
gitDescribe()
{
    return VAESA_GIT_DESCRIBE;
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
manifestJson(const ManifestInfo &info)
{
    std::string out;
    out.reserve(4096);
    out += "{\n  \"schema_version\": 1,\n  \"tool\": ";
    appendJsonString(out, info.tool);
    out += ",\n  \"command\": ";
    appendJsonString(out, info.command);
    out += ",\n  \"command_line\": ";
    appendJsonString(out, info.commandLine);
    out += ",\n  \"config_hash\": ";
    char hash[32];
    std::snprintf(hash, sizeof(hash), "\"%016" PRIx64 "\"",
                  fnv1a(info.commandLine));
    out += hash;
    out += ",\n  \"seed\": ";
    appendU64(out, info.seed);
    out += ",\n  \"git_describe\": ";
    appendJsonString(out, gitDescribe());

    std::string counters;
    std::string gauges;
    std::string histograms;
    for (const MetricSample &sample : snapshot()) {
        if (sample.kind == "counter") {
            counters += counters.empty() ? "\n    " : ",\n    ";
            appendJsonString(counters, sample.name);
            counters += ": ";
            appendU64(counters, sample.count);
        } else if (sample.kind == "gauge") {
            gauges += gauges.empty() ? "\n    " : ",\n    ";
            appendJsonString(gauges, sample.name);
            gauges += ": ";
            appendDouble(gauges, sample.value);
        } else {
            const Histogram &h = *sample.histogram;
            histograms += histograms.empty() ? "\n    " : ",\n    ";
            appendJsonString(histograms, sample.name);
            histograms += ": {\"count\": ";
            appendU64(histograms, h.count());
            histograms += ", \"sum\": ";
            appendU64(histograms, h.sum());
            histograms += ", \"min\": ";
            appendU64(histograms, h.min());
            histograms += ", \"max\": ";
            appendU64(histograms, h.max());
            histograms += ", \"p50\": ";
            appendU64(histograms, h.quantile(0.5));
            histograms += ", \"p90\": ";
            appendU64(histograms, h.quantile(0.9));
            histograms += ", \"p99\": ";
            appendU64(histograms, h.quantile(0.99));
            histograms += ", \"buckets\": [";
            bool first = true;
            for (unsigned i = 0; i < Histogram::numBuckets; ++i) {
                if (h.bucketCount(i) == 0)
                    continue;
                if (!first)
                    histograms += ", ";
                first = false;
                histograms += "[";
                appendU64(histograms,
                          Histogram::bucketLowerBound(i));
                histograms += ", ";
                appendU64(histograms, h.bucketCount(i));
                histograms += "]";
            }
            histograms += "]}";
        }
    }
    out += ",\n  \"counters\": {" + counters +
           (counters.empty() ? "}" : "\n  }");
    out += ",\n  \"gauges\": {" + gauges +
           (gauges.empty() ? "}" : "\n  }");
    out += ",\n  \"histograms\": {" + histograms +
           (histograms.empty() ? "}" : "\n  }");
    out += "\n}\n";
    return out;
}

bool
writeManifest(const std::string &path, const ManifestInfo &info)
{
    if (auto err = atomicWriteFile(path, manifestJson(info))) {
        warn("metrics manifest write failed: ", err->describe());
        return false;
    }
    return true;
}

} // namespace vaesa::metrics
