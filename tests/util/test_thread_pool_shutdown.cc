/**
 * @file
 * Shutdown-edge tests for ThreadPool: the drain/join contract a
 * serving daemon leans on. Submitting during or after shutdown must
 * throw (never abort, never silently drop), already-queued work must
 * drain, double shutdown must be idempotent, and cancellation tokens
 * observed inside queued tasks must compose with the drain.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <vector>

#include "util/deadline.hh"
#include "util/thread_pool.hh"

namespace vaesa {
namespace {

TEST(ThreadPoolShutdown, SubmitAfterShutdownThrows)
{
    ThreadPool pool(2);
    pool.shutdown();
    EXPECT_EQ(pool.threadCount(), 0u);
    EXPECT_THROW((void)pool.submit([] {}), std::runtime_error);
}

TEST(ThreadPoolShutdown, ParallelForAfterShutdownThrows)
{
    // forEachChunk throws before running a chunk, even for a call
    // small enough to need no helper.
    ThreadPool pool(2);
    pool.shutdown();
    for (const std::size_t n : {1, 4}) {
        std::atomic<int> ran{0};
        EXPECT_THROW(pool.forEachChunk(n, 1,
                                       [&ran](std::size_t, std::size_t) {
                                           ++ran;
                                       }),
                     std::runtime_error)
            << n << " indices";
        EXPECT_EQ(ran.load(), 0) << n << " indices";
    }
}

TEST(ThreadPoolShutdown, QueuedTasksDrainBeforeJoin)
{
    std::atomic<int> ran{0};
    ThreadPool pool(1);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back(pool.submit([&ran] { ++ran; }));
    pool.shutdown();
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPoolShutdown, DoubleShutdownIsIdempotent)
{
    ThreadPool pool(2);
    pool.shutdown();
    pool.shutdown(); // second call must be a no-op, not a crash
    EXPECT_THROW((void)pool.submit([] {}), std::runtime_error);
}

TEST(ThreadPoolShutdown, ConcurrentShutdownsRaceSafely)
{
    ThreadPool pool(2);
    ThreadPool closers(4);
    closers.forEachChunk(4, 1, [&pool](std::size_t, std::size_t) {
        pool.shutdown();
    });
    EXPECT_EQ(pool.threadCount(), 0u);
    EXPECT_THROW((void)pool.submit([] {}), std::runtime_error);
}

TEST(ThreadPoolShutdown, SubmitDuringDrainThrowsOrRuns)
{
    // Race a burst of submits against shutdown: every submit must
    // either enqueue (its future completes) or throw -- no hangs,
    // no aborts, no dropped futures.
    ThreadPool pool(2);
    ThreadPool submitters(4);
    std::atomic<int> accepted{0};
    std::atomic<int> refused{0};
    submitters.submit([&pool] { pool.shutdown(); }).wait();
    submitters.forEachChunk(64, 1, [&](std::size_t, std::size_t) {
        try {
            pool.submit([] {}).wait();
            ++accepted;
        } catch (const std::runtime_error &) {
            ++refused;
        }
    });
    EXPECT_EQ(accepted.load() + refused.load(), 64);
}

TEST(ThreadPoolShutdown, CancellationObservedInsideQueuedTask)
{
    // A queued task that checks a cancel token after the drain
    // begins sees the cancellation; its DeadlineExceeded surfaces
    // through the future, not the pool.
    ThreadPool pool(1);
    CancelToken cancel;
    auto blocked = pool.submit([&cancel] {
        while (!cancel.expired()) {
        }
        cancel.check("queued_task");
    });
    auto late = pool.submit([&cancel] { cancel.check("late_task"); });
    cancel.cancel();
    EXPECT_THROW(blocked.get(), DeadlineExceeded);
    EXPECT_THROW(late.get(), DeadlineExceeded);
    pool.shutdown();
}

TEST(ThreadPoolShutdown, CancelledParallelForRethrowsDeadline)
{
    // forEachChunk propagates a DeadlineExceeded thrown by a chunk
    // after every helper returned, and the pool stays usable for the
    // next batch. Each claim loop (the caller's and its two helpers')
    // aborts at its first chunk's check, so exactly three of the
    // eight chunks run.
    ThreadPool pool(2);
    CancelToken cancel;
    cancel.cancel();
    std::atomic<int> visited{0};
    EXPECT_THROW(pool.forEachChunk(8, 1,
                                   [&](std::size_t, std::size_t) {
                                       ++visited;
                                       cancel.check("chunk");
                                   }),
                 DeadlineExceeded);
    EXPECT_EQ(visited.load(), 3);

    std::atomic<int> clean{0};
    pool.forEachChunk(8, 1,
                      [&clean](std::size_t, std::size_t) { ++clean; });
    EXPECT_EQ(clean.load(), 8);
    pool.shutdown();
}

} // namespace
} // namespace vaesa
