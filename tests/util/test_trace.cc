/**
 * @file
 * Unit tests for the Chrome-trace span layer: gating, event
 * collection, concurrency (run under TSan in CI), and the golden
 * schema of the serialized trace JSON.
 *
 * The span buffer is process-global; every test clears it first and
 * leaves tracing disabled so ordering within the binary cannot leak
 * between tests.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "json_lite.hh"
#include "util/thread_pool.hh"
#include "util/trace.hh"

namespace vaesa {
namespace {

using testjson::jsonValid;

/** RAII: clean span buffer on entry, tracing off + clean on exit. */
struct TraceSandbox
{
    TraceSandbox()
    {
        trace::setTraceEnabled(false);
        trace::clear();
    }
    ~TraceSandbox()
    {
        trace::setTraceEnabled(false);
        trace::clear();
    }
};

TEST(TraceSpan, DisabledSpanRecordsNothing)
{
    TraceSandbox sandbox;
    {
        const trace::Span span("test.trace.disabled");
    }
    EXPECT_EQ(trace::eventCount(), 0u);
    EXPECT_EQ(trace::droppedCount(), 0u);
}

TEST(TraceSpan, EnabledSpanRecordsOneEvent)
{
    TraceSandbox sandbox;
    trace::setTraceEnabled(true);
    {
        const trace::Span span("test.trace.one");
    }
    trace::setTraceEnabled(false);
    EXPECT_EQ(trace::eventCount(), 1u);
    EXPECT_NE(trace::chromeTraceJson().find("test.trace.one"),
              std::string::npos);
}

TEST(TraceSpan, EnabledLatchedAtConstruction)
{
    // A span opened before disable must still complete; a span
    // opened after must not record.
    TraceSandbox sandbox;
    trace::setTraceEnabled(true);
    {
        const trace::Span open("test.trace.latched");
        trace::setTraceEnabled(false);
    }
    {
        const trace::Span closed("test.trace.after_off");
    }
    EXPECT_EQ(trace::eventCount(), 1u);
}

TEST(TraceSpan, ClearDropsBufferedEvents)
{
    TraceSandbox sandbox;
    trace::setTraceEnabled(true);
    {
        const trace::Span span("test.trace.cleared");
    }
    trace::setTraceEnabled(false);
    ASSERT_EQ(trace::eventCount(), 1u);
    trace::clear();
    EXPECT_EQ(trace::eventCount(), 0u);
}

TEST(TraceSpan, EightThreadsLoseNoSpans)
{
    // The TSan-checked contract: concurrent span completion from 8
    // threads lands every event exactly once.
    TraceSandbox sandbox;
    constexpr std::size_t threads = 8;
    constexpr std::size_t perThread = 500;
    trace::setTraceEnabled(true);
    ThreadPool pool(threads);
    pool.forEachChunk(threads, 1, [&](std::size_t, std::size_t) {
        for (std::size_t i = 0; i < perThread; ++i) {
            const trace::Span span("test.trace.mt");
        }
    });
    trace::setTraceEnabled(false);
    EXPECT_EQ(trace::eventCount(), threads * perThread);
    EXPECT_EQ(trace::droppedCount(), 0u);
}

TEST(TraceJson, EmptyBufferIsValidChromeTrace)
{
    TraceSandbox sandbox;
    const std::string json = trace::chromeTraceJson();
    EXPECT_TRUE(jsonValid(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"droppedSpans\": 0"), std::string::npos);
}

TEST(TraceJson, EventsCarryTheChromeSchema)
{
    TraceSandbox sandbox;
    trace::setTraceEnabled(true);
    {
        const trace::Span outer("test.trace.outer");
        const trace::Span inner("test.trace.inner");
    }
    trace::setTraceEnabled(false);
    const std::string json = trace::chromeTraceJson();
    EXPECT_TRUE(jsonValid(json)) << json;
    // Golden schema: complete events with µs timestamps, as loaded
    // by chrome://tracing and Perfetto.
    for (const char *key :
         {"\"traceEvents\"", "\"name\"", "\"ph\": \"X\"",
          "\"pid\": 1", "\"tid\"", "\"ts\"", "\"dur\"",
          "\"displayTimeUnit\": \"ms\"", "\"droppedSpans\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
    EXPECT_NE(json.find("test.trace.outer"), std::string::npos);
    EXPECT_NE(json.find("test.trace.inner"), std::string::npos);
}

TEST(TraceJson, TimestampsAreMonotonicAcrossSequentialSpans)
{
    TraceSandbox sandbox;
    trace::setTraceEnabled(true);
    {
        const trace::Span first("test.trace.seq");
    }
    {
        const trace::Span second("test.trace.seq");
    }
    trace::setTraceEnabled(false);
    const std::string json = trace::chromeTraceJson();
    // Events are buffered in completion order; the second span's ts
    // must be at or after the first's.
    std::size_t pos = json.find("\"ts\": ");
    ASSERT_NE(pos, std::string::npos);
    const double ts1 = std::strtod(json.c_str() + pos + 6, nullptr);
    pos = json.find("\"ts\": ", pos + 1);
    ASSERT_NE(pos, std::string::npos);
    const double ts2 = std::strtod(json.c_str() + pos + 6, nullptr);
    EXPECT_GE(ts2, ts1);
}

} // namespace
} // namespace vaesa
