/**
 * @file
 * Capability-annotated synchronization primitives — the repo's ONLY
 * sanctioned home for raw std::mutex / std::shared_mutex / the std
 * lock guards (enforced by tools/check). Library code declares every
 * protected member with VAESA_GUARDED_BY and every locking contract
 * with VAESA_REQUIRES / VAESA_ACQUIRE / VAESA_EXCLUDES, so the `tsa`
 * CMake preset (clang -Werror=thread-safety) proves lock discipline
 * at compile time; under GCC the annotations compile to nothing.
 *
 * The canonical lock-order table lives at the bottom of this header
 * as VAESA_LOCK_ORDER_ENTRY(name, rank) declarations. vaesa_check
 * parses it and flags any nested acquisition whose ranks do not
 * strictly increase, including nesting any mutex the table does not
 * rank at all.
 */

#ifndef VAESA_UTIL_SYNC_HH
#define VAESA_UTIL_SYNC_HH

#include <mutex>
#include <shared_mutex>

// ---------------------------------------------------------------------------
// Clang Thread Safety Analysis attributes (no-ops everywhere else).
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define VAESA_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define VAESA_THREAD_ANNOTATION(x)
#endif

/** Marks a type as a lockable capability (a mutex). */
#define VAESA_CAPABILITY(x) VAESA_THREAD_ANNOTATION(capability(x))

/** Marks a RAII type whose lifetime equals a critical section. */
#define VAESA_SCOPED_CAPABILITY VAESA_THREAD_ANNOTATION(scoped_lockable)

/** Member may only be touched while holding the named mutex. */
#define VAESA_GUARDED_BY(x) VAESA_THREAD_ANNOTATION(guarded_by(x))

/** Pointee may only be touched while holding the named mutex. */
#define VAESA_PT_GUARDED_BY(x) VAESA_THREAD_ANNOTATION(pt_guarded_by(x))

/** Caller must already hold the mutex (exclusively). */
#define VAESA_REQUIRES(...) \
    VAESA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Caller must already hold the mutex (shared or exclusive). */
#define VAESA_REQUIRES_SHARED(...) \
    VAESA_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/** Function acquires the mutex and returns holding it. */
#define VAESA_ACQUIRE(...) \
    VAESA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function acquires the mutex in shared mode. */
#define VAESA_ACQUIRE_SHARED(...) \
    VAESA_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/** Function releases the (exclusively held) mutex. */
#define VAESA_RELEASE(...) \
    VAESA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function releases the shared-held mutex. */
#define VAESA_RELEASE_SHARED(...) \
    VAESA_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/** Function releases the mutex however it was acquired. */
#define VAESA_RELEASE_GENERIC(...) \
    VAESA_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))

/** Function acquires the mutex iff it returns the given value. */
#define VAESA_TRY_ACQUIRE(...) \
    VAESA_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/** Caller must NOT hold the mutex (deadlock prevention). */
#define VAESA_EXCLUDES(...) \
    VAESA_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Assert (at runtime) that the mutex is held; informs the analysis. */
#define VAESA_ASSERT_CAPABILITY(x) \
    VAESA_THREAD_ANNOTATION(assert_capability(x))

/** Function returns a reference to the named mutex. */
#define VAESA_RETURN_CAPABILITY(x) \
    VAESA_THREAD_ANNOTATION(lock_returned(x))

/**
 * Opt a function body out of the analysis. Policy: every use MUST
 * carry a one-line justification comment (docs/STATIC_ANALYSIS.md).
 */
#define VAESA_NO_THREAD_SAFETY_ANALYSIS \
    VAESA_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace vaesa {

/**
 * Exclusive mutex. Prefer the MutexLock guard over manual
 * lock()/unlock(); manual calls exist for adopt-style handoff
 * (see CachingEvaluator::lockShard).
 */
class VAESA_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    // Suppression: the bodies manipulate the raw std primitive the
    // analysis cannot model; the interface annotations are the truth.
    void lock() VAESA_ACQUIRE() VAESA_NO_THREAD_SAFETY_ANALYSIS
    {
        raw_.lock();
    }
    bool try_lock() VAESA_TRY_ACQUIRE(true)
        VAESA_NO_THREAD_SAFETY_ANALYSIS
    {
        return raw_.try_lock();
    }
    void unlock() VAESA_RELEASE() VAESA_NO_THREAD_SAFETY_ANALYSIS
    {
        raw_.unlock();
    }

  private:
    std::mutex raw_;
};

/**
 * Reader/writer mutex (std::shared_mutex underneath). Use ReaderLock
 * and WriterLock; there is no manual-locking escape hatch.
 */
class VAESA_CAPABILITY("shared_mutex") SharedMutex
{
  public:
    SharedMutex() = default;
    SharedMutex(const SharedMutex &) = delete;
    SharedMutex &operator=(const SharedMutex &) = delete;

    // Suppression: trivial forwarding to the unannotated std
    // primitive; the interface annotations are the truth.
    void lock() VAESA_ACQUIRE() VAESA_NO_THREAD_SAFETY_ANALYSIS
    {
        raw_.lock();
    }
    void unlock() VAESA_RELEASE() VAESA_NO_THREAD_SAFETY_ANALYSIS
    {
        raw_.unlock();
    }
    void lock_shared() VAESA_ACQUIRE_SHARED()
        VAESA_NO_THREAD_SAFETY_ANALYSIS
    {
        raw_.lock_shared();
    }
    void unlock_shared() VAESA_RELEASE_SHARED()
        VAESA_NO_THREAD_SAFETY_ANALYSIS
    {
        raw_.unlock_shared();
    }

  private:
    std::shared_mutex raw_;
};

/** Tag type selecting the adopting MutexLock constructor. */
struct AdoptLockT
{
    explicit AdoptLockT() = default;
};
inline constexpr AdoptLockT adoptLock{};

/**
 * RAII exclusive critical section over a Mutex. The adopting
 * overload takes ownership of a mutex the caller already locked
 * (e.g. via a contention-counting slow path) without reacquiring.
 */
class VAESA_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mutex) VAESA_ACQUIRE(mutex)
        : mutex_(mutex)
    {
        mutex_.lock();
    }
    MutexLock(Mutex &mutex, AdoptLockT) VAESA_REQUIRES(mutex)
        : mutex_(mutex)
    {
    }
    ~MutexLock() VAESA_RELEASE_GENERIC() { mutex_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mutex_;
};

/** RAII shared (reader) critical section over a SharedMutex. */
class VAESA_SCOPED_CAPABILITY ReaderLock
{
  public:
    explicit ReaderLock(SharedMutex &mutex) VAESA_ACQUIRE_SHARED(mutex)
        : mutex_(mutex)
    {
        mutex_.lock_shared();
    }
    ~ReaderLock() VAESA_RELEASE_GENERIC() { mutex_.unlock_shared(); }

    ReaderLock(const ReaderLock &) = delete;
    ReaderLock &operator=(const ReaderLock &) = delete;

  private:
    SharedMutex &mutex_;
};

/** RAII exclusive (writer) critical section over a SharedMutex. */
class VAESA_SCOPED_CAPABILITY WriterLock
{
  public:
    explicit WriterLock(SharedMutex &mutex) VAESA_ACQUIRE(mutex)
        : mutex_(mutex)
    {
        mutex_.lock();
    }
    ~WriterLock() VAESA_RELEASE_GENERIC() { mutex_.unlock(); }

    WriterLock(const WriterLock &) = delete;
    WriterLock &operator=(const WriterLock &) = delete;

  private:
    SharedMutex &mutex_;
};

} // namespace vaesa

// ---------------------------------------------------------------------------
// Canonical lock-order table.
//
// Ranks strictly increase from outer to inner acquisition: while
// holding a mutex of rank R, only mutexes of rank > R may be
// acquired. vaesa_check parses these entries (the mutex is named by
// the member identifier, which is unique repo-wide) and verifies
// every observed nested guard against them. Adding a mutex to src/
// means adding a row here.
// ---------------------------------------------------------------------------

/** Declares one row of the lock-order table (parsed by vaesa_check). */
#define VAESA_LOCK_ORDER_ENTRY(mutexName, rank) \
    static_assert((rank) > 0, "lock ranks are positive")

// Serve ModelRegistry current-bundle pointer; a short swap/pin lock
// that may be held before any evaluation begins.
VAESA_LOCK_ORDER_ENTRY(bundleMutex_, 4);
// Serve ModelBundle scratch-buffer lock; decode/predict may be
// followed by (never nested under) cache evaluation, but ranking it
// below the cache locks keeps that nesting legal if it ever forms.
VAESA_LOCK_ORDER_ENTRY(modelMutex, 6);
// CachingEvaluator layer registry; never held across a shard lock.
VAESA_LOCK_ORDER_ENTRY(registryMutex_, 10);
// CachingEvaluator per-shard entry maps; innermost cache lock.
VAESA_LOCK_ORDER_ENTRY(shardMutex, 20);
// ThreadPool task queue; leaf (never held while running a task).
VAESA_LOCK_ORDER_ENTRY(queueMutex_, 30);
// Metrics registry maps; leaf (instrument ops are lock-free).
VAESA_LOCK_ORDER_ENTRY(metricsMutex, 40);
// Trace collector event buffer; leaf.
VAESA_LOCK_ORDER_ENTRY(traceMutex, 50);
// Fault injector plan table; leaf.
VAESA_LOCK_ORDER_ENTRY(faultMutex_, 60);

#endif // VAESA_UTIL_SYNC_HH
