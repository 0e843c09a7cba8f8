/**
 * @file
 * Fixed-size worker thread pool — the repo's ONLY sanctioned home for
 * raw std::thread (enforced by tools/check). Every parallel subsystem
 * (the parallel evaluation layer, batch candidate scoring, parallel
 * workload roll-ups) schedules work through this pool so thread
 * counts stay centrally controlled via VAESA_THREADS and TSan runs
 * exercise one concurrency substrate instead of many.
 */

#ifndef VAESA_UTIL_THREAD_POOL_HH
#define VAESA_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "util/sync.hh"

namespace vaesa {

/**
 * A fixed set of worker threads consuming a FIFO task queue.
 *
 * Tasks never run on the caller's thread: submit() enqueues and
 * returns a future, parallelFor() enqueues one contiguous chunk per
 * worker and blocks until all chunks finish. Exceptions thrown by
 * task bodies are captured and rethrown on the waiting thread (for
 * parallelFor, the pending exception of the lowest-index chunk wins,
 * matching what a serial loop would have thrown first).
 *
 * parallelFor() must not be called from inside a pool task: a worker
 * waiting on its own queue would deadlock the pool. Keep nesting in
 * the caller — parallelize the outermost loop only.
 *
 * The batch engine (sched/parallel_evaluator.hh) is built on
 * submit(), not parallelFor(): it queues at most one stealing loop
 * per worker and runs one more on its calling thread, so that caller
 * scores chunks instead of idling until the join. The pool itself
 * still runs nothing on a caller's thread, and the pool.* metrics
 * count its tasks and workers only.
 */
class ThreadPool
{
  public:
    /**
     * Start the workers.
     * @param threads worker count; 0 means defaultThreadCount().
     */
    explicit ThreadPool(std::size_t threads = 0);

    /** Joins all workers after draining the queue. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads (0 once shutdown() joined them). */
    std::size_t threadCount() const { return threads_; }

    /**
     * Stop accepting work, drain the already-queued tasks, and join
     * every worker. Idempotent; safe to call from multiple threads
     * (exactly one joins). After shutdown() begins, submit() and
     * parallelFor() throw instead of enqueueing — a draining daemon
     * must be able to race a late submit against its own shutdown
     * without aborting the process.
     */
    void shutdown() VAESA_EXCLUDES(queueMutex_);

    /**
     * Enqueue one task; the future rethrows anything it throws.
     * Throws std::runtime_error if the pool is stopping (see
     * shutdown()).
     */
    std::future<void> submit(std::function<void()> task)
        VAESA_EXCLUDES(queueMutex_);

    /**
     * Run body(i) for every i in [0, n) across the workers in
     * contiguous chunks; blocks until every index ran. Rethrows the
     * first (lowest-chunk) exception after all chunks finished, so
     * no index is silently skipped mid-flight.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /**
     * Worker count used when a pool is built with threads == 0: the
     * VAESA_THREADS env var when set (must be >= 1), otherwise
     * hardwareThreadCount().
     */
    static std::size_t defaultThreadCount();

    /** The host's std::thread::hardware_concurrency(), never less
     *  than 1 and never overridden by VAESA_THREADS. */
    static std::size_t hardwareThreadCount();

  private:
    void workerLoop() VAESA_EXCLUDES(queueMutex_);

    std::vector<std::thread> workers_;
    std::size_t threads_ = 0;
    mutable Mutex queueMutex_;
    std::deque<std::packaged_task<void()>> queue_
        VAESA_GUARDED_BY(queueMutex_);
    bool stopping_ VAESA_GUARDED_BY(queueMutex_) = false;
    bool joined_ VAESA_GUARDED_BY(queueMutex_) = false;
    // _any flavour: it waits on the annotated vaesa::Mutex directly
    // (BasicLockable), so the guarded wait loop stays visible to the
    // thread-safety analysis.
    std::condition_variable_any wake_;
};

} // namespace vaesa

#endif // VAESA_UTIL_THREAD_POOL_HH
