/** @file Unit tests for the worker thread pool. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <vector>

#include "../common/held_worker.hh"
#include "util/metrics.hh"
#include "util/thread_pool.hh"

namespace vaesa {
namespace {

TEST(ThreadPool, DefaultCountIsAtLeastOne)
{
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
    ThreadPool pool;
    EXPECT_GE(pool.threadCount(), 1u);
}

TEST(ThreadPool, EnvOverrideControlsDefaultCount)
{
    ::setenv("VAESA_THREADS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), 3u);
    ThreadPool pool;
    EXPECT_EQ(pool.threadCount(), 3u);
    ::unsetenv("VAESA_THREADS");
}

TEST(ThreadPool, HardwareCountIgnoresEnvOverride)
{
    const std::size_t hw = ThreadPool::hardwareThreadCount();
    EXPECT_GE(hw, 1u);
    ::setenv("VAESA_THREADS", "3", 1);
    EXPECT_EQ(ThreadPool::hardwareThreadCount(), hw);
    ::unsetenv("VAESA_THREADS");
    EXPECT_EQ(ThreadPool::defaultThreadCount(), hw);
}

TEST(ThreadPool, ExplicitCountWins)
{
    ::setenv("VAESA_THREADS", "3", 1);
    ThreadPool pool(2);
    EXPECT_EQ(pool.threadCount(), 2u);
    ::unsetenv("VAESA_THREADS");
}

TEST(ThreadPool, SubmitRunsTaskAndFutureWaits)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    auto f1 = pool.submit([&] { ran.fetch_add(1); });
    auto f2 = pool.submit([&] { ran.fetch_add(10); });
    f1.get();
    f2.get();
    EXPECT_EQ(ran.load(), 11);
}

TEST(ThreadPool, SubmitPropagatesExceptionThroughFuture)
{
    ThreadPool pool(2);
    auto future = pool.submit(
        [] { throw std::runtime_error("task boom"); });
    EXPECT_THROW(
        {
            try {
                future.get();
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "task boom");
                throw;
            }
        },
        std::runtime_error);
}

// The ParallelFor* names below are the pool's parallel-for contract;
// forEachChunk is its one implementation.

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    for (const std::size_t chunk : {1, 7, 256}) {
        for (const std::size_t n : {0, 1, 3, 4, 1000}) {
            SCOPED_TRACE(::testing::Message()
                         << "n " << n << ", chunk " << chunk);
            std::vector<std::atomic<int>> seen(n);
            pool.forEachChunk(n, chunk,
                              [&](std::size_t begin, std::size_t end) {
                                  EXPECT_EQ(begin % chunk, 0u);
                                  EXPECT_EQ(end, std::min(n, begin + chunk));
                                  for (std::size_t i = begin; i < end; ++i)
                                      seen[i].fetch_add(1);
                              });
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(seen[i].load(), 1) << "index " << i;
        }
    }
}

TEST(ThreadPool, ParallelForWorksWithOneWorker)
{
    ThreadPool pool(1);
    std::vector<int> out(37, 0);
    pool.forEachChunk(out.size(), 1, [&](std::size_t i, std::size_t) {
        out[i] = static_cast<int>(i) * 2;
    });
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i) * 2);
}

TEST(ThreadPool, ParallelForRethrowsBodyException)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        {
            try {
                pool.forEachChunk(64, 1, [](std::size_t i, std::size_t) {
                    if (i == 20)
                        throw std::runtime_error("body boom");
                });
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "body boom");
                throw;
            }
        },
        std::runtime_error);
}

TEST(ThreadPool, UsableAfterException)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.forEachChunk(8, 1,
                                   [](std::size_t, std::size_t) {
                                       throw std::logic_error("x");
                                   }),
                 std::logic_error);
    std::atomic<long> sum{0};
    pool.forEachChunk(100, 1, [&](std::size_t i, std::size_t) {
        sum.fetch_add(static_cast<long>(i));
    });
    EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, CallerClaimsEveryChunkWhileTheOnlyWorkerIsHeld)
{
    // The calling thread claims chunks off the same cursor as its
    // helper. With the pool's one worker held, the caller alone runs
    // all 10 chunks; it then still waits for its queued helper, which
    // claims nothing once the worker is free.
    ThreadPool pool(1);
    ThreadPool callerPool(1);
    std::vector<std::atomic<int>> seen(40);
    std::atomic<int> chunks{0};
    testing::HeldWorker held(pool);
    std::future<void> done = callerPool.submit([&] {
        pool.forEachChunk(seen.size(), 4,
                          [&](std::size_t begin, std::size_t end) {
                              for (std::size_t i = begin; i < end; ++i)
                                  seen[i].fetch_add(1);
                              chunks.fetch_add(1);
                          });
    });
    ASSERT_TRUE(testing::eventually([&] { return chunks.load() == 10; }));
    EXPECT_EQ(done.wait_for(std::chrono::milliseconds(20)),
              std::future_status::timeout)
        << "forEachChunk returned before its queued helper did";
    held.release();
    done.get();
    EXPECT_EQ(chunks.load(), 10);
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, OneChunkQueuesNoHelper)
{
    // Up to one chunk runs on the caller alone; each further chunk
    // adds one helper, up to one per worker.
    ThreadPool pool(3);
    metrics::Counter &tasks = metrics::counter("pool.tasks");
    const auto helpersFor = [&](std::size_t n, std::size_t chunk) {
        const std::uint64_t before = tasks.value();
        pool.forEachChunk(n, chunk, [](std::size_t, std::size_t) {});
        return tasks.value() - before;
    };
    EXPECT_EQ(helpersFor(0, 4), 0u);
    EXPECT_EQ(helpersFor(1, 4), 0u);
    EXPECT_EQ(helpersFor(4, 4), 0u);
    EXPECT_EQ(helpersFor(5, 4), 1u);
    EXPECT_EQ(helpersFor(12, 4), 2u);
    EXPECT_EQ(helpersFor(1000, 4), 3u);
}

} // namespace
} // namespace vaesa
