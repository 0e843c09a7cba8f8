/**
 * @file
 * Unit tests for the process-wide metrics layer: counter/gauge/
 * histogram semantics, registry stability, timing gates, the
 * 8-thread concurrency contract (run under TSan in CI), and the
 * golden schema of the exported run manifest.
 *
 * The registry is process-global and shared with every other test in
 * this binary, so all names here live under "test.metrics." and
 * value assertions use deltas or fresh names, never absolute
 * registry state.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "json_lite.hh"
#include "util/metrics.hh"
#include "util/thread_pool.hh"

namespace vaesa {
namespace {

using testjson::jsonValid;

TEST(MetricsCounter, IncrementsAndSums)
{
    metrics::Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsCounter, EightThreadsLoseNoIncrements)
{
    // The TSan-checked contract: concurrent inc() from more threads
    // than shard slots is race-free and exact.
    metrics::Counter c;
    constexpr std::size_t threads = 8;
    constexpr std::uint64_t perThread = 50000;
    ThreadPool pool(threads);
    pool.forEachChunk(threads, 1, [&](std::size_t, std::size_t) {
        for (std::uint64_t i = 0; i < perThread; ++i)
            c.inc();
    });
    EXPECT_EQ(c.value(), threads * perThread);
}

TEST(MetricsGauge, SetAddAndNegativeDeltas)
{
    metrics::Gauge g;
    g.set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    g.add(1.5);
    EXPECT_DOUBLE_EQ(g.value(), 4.0);
    g.add(-6.0);
    EXPECT_DOUBLE_EQ(g.value(), -2.0);
    g.reset();
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(MetricsGauge, ConcurrentAddsAreExact)
{
    metrics::Gauge g;
    constexpr std::size_t threads = 8;
    ThreadPool pool(threads);
    pool.forEachChunk(threads, 1, [&](std::size_t i, std::size_t) {
        // Half the threads add, half subtract the same amount.
        const double delta = i % 2 == 0 ? 1.0 : -1.0;
        for (int n = 0; n < 10000; ++n)
            g.add(delta);
    });
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(MetricsHistogram, MomentsAndBucketPlacement)
{
    metrics::Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);

    h.observe(0); // bucket 0
    h.observe(1); // bucket 1 covers [1, 2)
    h.observe(2); // bucket 2 covers [2, 4)
    h.observe(3); // bucket 2
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 6u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 3u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 2u);
    EXPECT_EQ(metrics::Histogram::bucketLowerBound(0), 0u);
    EXPECT_EQ(metrics::Histogram::bucketLowerBound(1), 1u);
    EXPECT_EQ(metrics::Histogram::bucketLowerBound(10), 512u);
}

TEST(MetricsHistogram, QuantileIsBucketUpperBound)
{
    // quantile() reports the inclusive upper bound of the bucket
    // holding the q-th observation, clamped to the observed max.
    metrics::Histogram h;
    for (int i = 0; i < 99; ++i)
        h.observe(5); // bucket [4, 8)
    h.observe(1000); // bucket [512, 1024)
    EXPECT_EQ(h.quantile(0.5), 7u);
    EXPECT_EQ(h.quantile(1.0), 1000u);
}

TEST(MetricsHistogram, HugeValuesLandInTopBuckets)
{
    metrics::Histogram h;
    h.observe(~std::uint64_t{0});
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.max(), ~std::uint64_t{0});
    EXPECT_EQ(h.bucketCount(metrics::Histogram::numBuckets - 1), 1u);
}

TEST(MetricsHistogram, EightThreadObserversLoseNothing)
{
    metrics::Histogram h;
    constexpr std::size_t threads = 8;
    constexpr std::uint64_t perThread = 20000;
    ThreadPool pool(threads);
    pool.forEachChunk(threads, 1, [&](std::size_t t, std::size_t) {
        for (std::uint64_t i = 0; i < perThread; ++i)
            h.observe(t * 1000 + i % 7);
    });
    EXPECT_EQ(h.count(), threads * perThread);
}

TEST(MetricsRegistry, ReferencesAreStable)
{
    metrics::Counter &a = metrics::counter("test.metrics.stable");
    metrics::Counter &b = metrics::counter("test.metrics.stable");
    EXPECT_EQ(&a, &b);
    metrics::Gauge &g1 = metrics::gauge("test.metrics.stable_g");
    metrics::Gauge &g2 = metrics::gauge("test.metrics.stable_g");
    EXPECT_EQ(&g1, &g2);
    metrics::Histogram &h1 =
        metrics::histogram("test.metrics.stable_h");
    metrics::Histogram &h2 =
        metrics::histogram("test.metrics.stable_h");
    EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistry, ConcurrentRegistrationIsSafe)
{
    // Registration from many threads (same and distinct names) must
    // hand out stable references without racing the hot path.
    constexpr std::size_t threads = 8;
    ThreadPool pool(threads);
    pool.forEachChunk(threads, 1, [&](std::size_t t, std::size_t) {
        metrics::counter("test.metrics.reg_shared").inc();
        metrics::counter("test.metrics.reg_" + std::to_string(t))
            .inc(t + 1);
    });
    EXPECT_EQ(metrics::counter("test.metrics.reg_shared").value(),
              threads);
    for (std::size_t t = 0; t < threads; ++t)
        EXPECT_EQ(
            metrics::counter("test.metrics.reg_" + std::to_string(t))
                .value(),
            t + 1);
}

TEST(MetricsRegistry, SnapshotIsNameSortedWithinKind)
{
    // The manifest emits one sorted object per kind, so the
    // snapshot guarantees name order within each kind (counters,
    // then gauges, then histograms).
    metrics::counter("test.metrics.zz");
    metrics::counter("test.metrics.aa");
    const auto samples = metrics::snapshot();
    ASSERT_GE(samples.size(), 2u);
    for (std::size_t i = 1; i < samples.size(); ++i) {
        if (samples[i - 1].kind == samples[i].kind) {
            EXPECT_LE(samples[i - 1].name, samples[i].name);
        }
    }
}

TEST(MetricsTiming, ScopedTimerIsGatedOnEnabled)
{
    metrics::Histogram &h =
        metrics::histogram("test.metrics.timer_gate");
    const std::uint64_t before = h.count();

    metrics::setMetricsEnabled(false);
    {
        const metrics::ScopedTimer timer(h);
    }
    EXPECT_EQ(h.count(), before);

    metrics::setMetricsEnabled(true);
    {
        const metrics::ScopedTimer timer(h);
    }
    metrics::setMetricsEnabled(false);
    EXPECT_EQ(h.count(), before + 1);
}

TEST(MetricsTiming, MonotonicClockNeverGoesBack)
{
    std::uint64_t last = metrics::monotonicNowNs();
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t now = metrics::monotonicNowNs();
        EXPECT_GE(now, last);
        last = now;
    }
}

TEST(MetricsManifest, Fnv1aIsStable)
{
    // Golden values pin the hash so config_hash stays comparable
    // across runs and machines.
    EXPECT_EQ(metrics::fnv1a(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(metrics::fnv1a("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(metrics::fnv1a("vaesa"),
              metrics::fnv1a(std::string("vaesa")));
    EXPECT_NE(metrics::fnv1a("vaesa"), metrics::fnv1a("vaes"));
}

TEST(MetricsManifest, JsonIsWellFormedWithRequiredKeys)
{
    metrics::counter("test.metrics.manifest_c").inc(3);
    metrics::gauge("test.metrics.manifest_g").set(1.25);
    metrics::histogram("test.metrics.manifest_h").observe(100);

    metrics::ManifestInfo info;
    info.tool = "test_util";
    info.command = "unit";
    info.commandLine = "test_util --gtest";
    info.seed = 99;
    const std::string json = metrics::manifestJson(info);

    EXPECT_TRUE(jsonValid(json)) << json;
    // Golden schema: these keys are load-bearing for downstream
    // consumers; renaming any of them is a breaking change.
    for (const char *key :
         {"\"schema_version\": 1", "\"tool\"", "\"command\"",
          "\"command_line\"", "\"config_hash\"", "\"seed\": 99",
          "\"git_describe\"", "\"counters\"", "\"gauges\"",
          "\"histograms\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
    EXPECT_NE(json.find("\"test.metrics.manifest_c\": 3"),
              std::string::npos);
    EXPECT_NE(json.find("\"test.metrics.manifest_g\": 1.25"),
              std::string::npos);
    // Histogram entries carry the full summary sub-schema.
    const std::size_t hist =
        json.find("\"test.metrics.manifest_h\"");
    ASSERT_NE(hist, std::string::npos);
    for (const char *key : {"\"count\"", "\"sum\"", "\"min\"",
                            "\"max\"", "\"p50\"", "\"p90\"",
                            "\"p99\"", "\"buckets\""}) {
        EXPECT_NE(json.find(key, hist), std::string::npos) << key;
    }
}

TEST(MetricsManifest, ConfigHashMatchesCommandLine)
{
    metrics::ManifestInfo info;
    info.tool = "t";
    info.command = "c";
    info.commandLine = "vaesa_cli train model.bin --seed 7";
    char expected[32];
    std::snprintf(expected, sizeof(expected), "\"%016llx\"",
                  static_cast<unsigned long long>(
                      metrics::fnv1a(info.commandLine)));
    EXPECT_NE(metrics::manifestJson(info).find(expected),
              std::string::npos);
}

TEST(MetricsManifest, JsonStringsAreEscaped)
{
    metrics::ManifestInfo info;
    info.tool = "quote\"back\\slash";
    info.command = "c";
    info.commandLine = "line\nbreak";
    const std::string json = metrics::manifestJson(info);
    EXPECT_TRUE(jsonValid(json)) << json;
}

} // namespace
} // namespace vaesa
