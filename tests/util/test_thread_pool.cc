/** @file Unit tests for the worker thread pool. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

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

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    for (std::size_t n : {std::size_t{0}, std::size_t{1},
                          std::size_t{3}, std::size_t{4},
                          std::size_t{1000}}) {
        std::vector<std::atomic<int>> seen(n);
        pool.parallelFor(n, [&](std::size_t i) {
            seen[i].fetch_add(1);
        });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(seen[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ParallelForWorksWithOneWorker)
{
    ThreadPool pool(1);
    std::vector<int> out(37, 0);
    pool.parallelFor(out.size(), [&](std::size_t i) {
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
                pool.parallelFor(64, [](std::size_t i) {
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

TEST(ThreadPool, LowestChunkExceptionWinsAndAllChunksFinish)
{
    ThreadPool pool(4);
    std::atomic<int> completed{0};
    try {
        pool.parallelFor(400, [&](std::size_t i) {
            // Every chunk throws on its own indices; the exception
            // from the chunk holding the lowest index must be the
            // one rethrown, and no chunk may be abandoned.
            completed.fetch_add(1);
            if (i % 100 == 99)
                throw std::runtime_error("chunk " +
                                         std::to_string(i / 100));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "chunk 0");
    }
    // All four chunks ran up to (and including) their throwing index.
    EXPECT_EQ(completed.load(), 400);
}

TEST(ThreadPool, UsableAfterException)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(8,
                                  [](std::size_t) {
                                      throw std::logic_error("x");
                                  }),
                 std::logic_error);
    std::atomic<long> sum{0};
    pool.parallelFor(100, [&](std::size_t i) {
        sum.fetch_add(static_cast<long>(i));
    });
    EXPECT_EQ(sum.load(), 4950);
}

} // namespace
} // namespace vaesa
