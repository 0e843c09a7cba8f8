#include "util/thread_pool.hh"

#include <algorithm>
#include <atomic>
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
ThreadPool::forEachChunk(
    std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)> &body)
{
    if (n == 0)
        return;
    if (chunk == 0)
        panic("ThreadPool::forEachChunk: chunk size 0");
    std::atomic<std::size_t> cursor{0};
    const auto claimLoop = [&] {
        for (std::size_t begin; (begin = cursor.fetch_add(chunk)) < n;)
            body(begin, std::min(n, begin + chunk));
    };
    const std::size_t chunks = (n - 1) / chunk + 1;
    std::vector<std::future<void>> helpers;
    {
        // All helpers or none: a stopping pool throws before anything
        // is queued, so no helper can outlive this frame.
        const MutexLock lock(queueMutex_);
        if (stopping_)
            throw std::runtime_error(
                "ThreadPool::forEachChunk on a stopping pool");
        const std::size_t count = std::min(threads_, chunks - 1);
        helpers.reserve(count);
        const std::size_t queued = queue_.size();
        try {
            for (std::size_t t = 0; t < count; ++t) {
                queue_.emplace_back(claimLoop);
                helpers.push_back(queue_.back().get_future());
            }
        } catch (...) {
            while (queue_.size() > queued)
                queue_.pop_back();
            throw;
        }
    }
    if (!helpers.empty()) {
        PoolMetrics &m = poolMetrics();
        m.tasks.inc(helpers.size());
        m.queueDepth.add(static_cast<double>(helpers.size()));
        for (std::size_t t = 0; t < helpers.size(); ++t)
            wake_.notify_one();
    }
    // Join every helper before rethrowing, so none still reads this
    // frame (cursor, body) when the exception unwinds it.
    std::exception_ptr failure;
    try {
        claimLoop();
    } catch (...) {
        failure = std::current_exception();
    }
    for (std::future<void> &helper : helpers) {
        try {
            helper.get();
        } catch (...) {
            if (!failure)
                failure = std::current_exception();
        }
    }
    if (failure)
        std::rethrow_exception(failure);
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
