/**
 * @file
 * Test helpers for pinning down who runs a batch: a task that holds
 * one pool worker until released, and a bounded wait for a condition
 * another thread makes true.
 */

#ifndef VAESA_TESTS_COMMON_HELD_WORKER_HH
#define VAESA_TESTS_COMMON_HELD_WORKER_HH

#include <chrono>
#include <future>
#include <thread>

#include "util/thread_pool.hh"

namespace vaesa::testing {

/**
 * Occupies one worker of a pool from construction until release()
 * or destruction, so tasks queued behind it cannot start. Construct
 * it after the pool (and after anything a queued task reads), so it
 * is destroyed, and the worker freed, first.
 */
class HeldWorker
{
  public:
    explicit HeldWorker(ThreadPool &pool)
        : task_(pool.submit([this] {
              start_.set_value();
              gate_.wait();
          }))
    {
        started_.wait();
    }

    ~HeldWorker() { release(); }

    HeldWorker(const HeldWorker &) = delete;
    HeldWorker &operator=(const HeldWorker &) = delete;

    /** Free the worker and wait until its holding task returned. */
    void
    release()
    {
        if (released_)
            return;
        released_ = true;
        open_.set_value();
        task_.get();
    }

  private:
    std::promise<void> open_;
    std::shared_future<void> gate_ = open_.get_future().share();
    std::promise<void> start_;
    std::future<void> started_ = start_.get_future();
    std::future<void> task_;
    bool released_ = false;
};

/** Poll @p done until it holds or ~30 s pass; true if it held. */
template <class Pred>
bool
eventually(const Pred &done)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!done()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

} // namespace vaesa::testing

#endif // VAESA_TESTS_COMMON_HELD_WORKER_HH
