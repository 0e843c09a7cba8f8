#include "util/thread_pool.hh"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/env.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

namespace vaesa {

namespace {

/** Pool-wide observability instruments, resolved once. */
struct PoolMetrics
{
    metrics::Counter &tasks = metrics::counter("pool.tasks");
    metrics::Counter &busyNs = metrics::counter("pool.busy_ns");
    metrics::Gauge &queueDepth = metrics::gauge("pool.queue_depth");
    metrics::Histogram &taskNs =
        metrics::histogram("pool.task_ns");
};

PoolMetrics &
poolMetrics()
{
    static PoolMetrics m;
    return m;
}

} // namespace

ThreadPool::ThreadPool(std::size_t threads)
{
    if (threads == 0)
        threads = defaultThreadCount();
    threads_ = threads;
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    shutdown();
}

void
ThreadPool::shutdown()
{
    {
        const MutexLock lock(queueMutex_);
        stopping_ = true;
        if (joined_)
            return;
        joined_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
    workers_.clear();
    threads_ = 0;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::packaged_task<void()> task;
        {
            const MutexLock lock(queueMutex_);
            // Explicit predicate loop (not the lambda overload) so
            // the guarded reads happen where the analysis can see
            // the lock is held; wait() releases/reacquires the
            // mutex internally.
            while (!stopping_ && queue_.empty())
                wake_.wait(queueMutex_);
            if (queue_.empty())
                return; // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        PoolMetrics &m = poolMetrics();
        m.queueDepth.add(-1.0);
        // Task latency (and the busy-time counter behind worker
        // utilization) needs two clock reads per task, so it is
        // gated on the process-wide metrics switch.
        if (metrics::metricsEnabled()) {
            const std::uint64_t start = metrics::monotonicNowNs();
            // packaged_task captures any exception into the future.
            task();
            const std::uint64_t ns =
                metrics::monotonicNowNs() - start;
            m.taskNs.observe(ns);
            m.busyNs.inc(ns);
        } else {
            task();
        }
    }
}

std::future<void>
ThreadPool::submit(std::function<void()> task)
{
    std::packaged_task<void()> packaged(std::move(task));
    std::future<void> future = packaged.get_future();
    {
        const MutexLock lock(queueMutex_);
        if (stopping_)
            throw std::runtime_error(
                "ThreadPool::submit on a stopping pool");
        queue_.push_back(std::move(packaged));
    }
    PoolMetrics &m = poolMetrics();
    m.tasks.inc();
    m.queueDepth.add(1.0);
    wake_.notify_one();
    return future;
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    // max(1, ...): a joined pool has threadCount() == 0, and zero
    // chunks would silently run nothing -- one chunk makes submit()
    // throw its stopping-pool error instead of dropping the work.
    const std::size_t chunks = std::min<std::size_t>(
        n, std::max<std::size_t>(1, threadCount()));
    std::vector<std::future<void>> pending;
    pending.reserve(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
        // Contiguous chunks; the first (n % chunks) get one extra.
        const std::size_t begin =
            c * (n / chunks) + std::min(c, n % chunks);
        const std::size_t end =
            begin + n / chunks + (c < n % chunks ? 1 : 0);
        pending.push_back(submit([&body, begin, end] {
            for (std::size_t i = begin; i < end; ++i)
                body(i);
        }));
    }
    // Wait for every chunk before rethrowing so no iteration is
    // still touching caller state when the exception unwinds; the
    // lowest-chunk exception is the one a serial loop would have hit
    // first.
    std::exception_ptr first;
    for (std::future<void> &future : pending) {
        try {
            future.get();
        } catch (...) {
            if (!first)
                first = std::current_exception();
        }
    }
    if (first)
        std::rethrow_exception(first);
}

std::size_t
ThreadPool::defaultThreadCount()
{
    const std::int64_t requested = envInt("VAESA_THREADS", 0);
    if (requested < 0)
        fatal("VAESA_THREADS=", requested, " must be >= 1");
    if (requested > 0)
        return static_cast<std::size_t>(requested);
    return hardwareThreadCount();
}

std::size_t
ThreadPool::hardwareThreadCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

} // namespace vaesa
