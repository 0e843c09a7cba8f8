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
 * A fixed set of worker threads consuming a FIFO task queue, with
 * two ways in:
 *   - submit() enqueues one task and returns its future;
 *   - forEachChunk() is the one fork/join: the calling thread and up
 *     to one queued helper per worker claim [begin, end) chunks off
 *     a shared atomic cursor, so the caller computes instead of
 *     idling until the join.
 * Exceptions thrown by task bodies are captured and rethrown on the
 * waiting thread.
 *
 * forEachChunk() must not be called from inside a task of the same
 * pool: once its caller has claimed every chunk it waits for helpers
 * that may be queued behind its own task, which deadlocks a pool
 * whose workers all do the same. Keep nesting in the caller:
 * parallelize the outermost loop only, or fan out onto another pool.
 *
 * The pool.* metrics count queued tasks and worker time only; the
 * chunks a caller claims itself are not pool tasks.
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
     * forEachChunk() throw instead of enqueueing or running anything
     * -- a draining daemon must be able to race a late call against
     * its own shutdown without aborting the process.
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
     * Run body(begin, end) over [0, n) in chunks of @p chunk indices
     * (the last one may be shorter), claimed in order off one atomic
     * cursor by the calling thread and by min(threadCount(),
     * chunks - 1) helpers, all queued in one critical section: a
     * one-chunk call queues none. Each chunk starts at a multiple of
     * @p chunk, whichever thread claims it. Blocks until every
     * helper returned, then rethrows the first failure seen; a loop
     * that throws claims no further chunk, the others run on. Throws
     * std::runtime_error, with no chunk run, if the pool is stopping
     * and n > 0. @p chunk must be at least 1.
     */
    void forEachChunk(
        std::size_t n, std::size_t chunk,
        const std::function<void(std::size_t, std::size_t)> &body)
        VAESA_EXCLUDES(queueMutex_);

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
