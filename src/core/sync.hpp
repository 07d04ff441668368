/// Annotated synchronization layer: every mutex and condition variable in
/// spinsim flows through these wrappers so the locking discipline is
/// checkable twice —
///
///   1. At compile time, under clang's Thread Safety Analysis
///      (-Wthread-safety -Wthread-safety-beta -Werror in CI): shared
///      fields carry SPINSIM_GUARDED_BY, internal helpers carry
///      SPINSIM_REQUIRES, and the analysis proves every access happens
///      under the right capability. The attribute macros below expand to
///      nothing on GCC, so the annotations cost zero outside the clang
///      static-analysis job.
///
///   2. At run time, through the lock-rank registry: every Mutex is
///      constructed with a documented LockRank and a thread-local rank
///      stack asserts that locks are only ever acquired in strictly
///      increasing rank order. A violation is a deadlock waiting for the
///      right schedule, so it aborts immediately with both ranks printed.
///      The checks are compiled in everywhere (an unconditional push/pop
///      on a fixed-size thread-local array, far cheaper than the lock
///      operation itself) and the *assertion* is gated on a runtime flag
///      that defaults on in debug builds — so Release tier-1 binaries can
///      still opt in from tests via set_lock_rank_checks(true).
///
/// The lock-rank table (lower rank = acquired first / outermost). Keep
/// this in sync with README.md "Thread safety":
///
///   rank  name            protects
///   ----  --------------  ------------------------------------------------
///    10   kServiceQueue   RecognitionService admission queue + lifecycle
///    20   kShard          one shard's job queue + worker state (never two at once)
///    25   kServiceDone    RecognitionService streamed completion queue
///    30   kServiceStats   service counters, breaker Health, histograms
///    40   kClientJoin     client-side join/wait state in tests & harnesses
///    50   kFaultSwitch    fault-injection stick/throw toggles
///    90   kParallelError  first-exception capture inside parallel_for
///
/// Suppression policy: code that clang's analysis cannot follow (notably
/// condition-variable predicate lambdas, which TSA analyzes as separate
/// functions) is marked SPINSIM_NO_TSA with a comment saying why. There
/// is no blanket opt-out — a new suppression needs a reason a reviewer
/// can check.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>  // lint:allow(raw-mutex) the one sanctioned wrapper site

// ---------------------------------------------------------------- macros
//
// Clang understands the capability attributes; GCC (and MSVC) do not, so
// everything collapses to nothing there. SWIG and friends never see this
// header.
#if defined(__clang__)
#define SPINSIM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SPINSIM_THREAD_ANNOTATION(x)
#endif

#define SPINSIM_CAPABILITY(x) SPINSIM_THREAD_ANNOTATION(capability(x))
#define SPINSIM_SCOPED_CAPABILITY SPINSIM_THREAD_ANNOTATION(scoped_lockable)
#define SPINSIM_GUARDED_BY(x) SPINSIM_THREAD_ANNOTATION(guarded_by(x))
#define SPINSIM_PT_GUARDED_BY(x) SPINSIM_THREAD_ANNOTATION(pt_guarded_by(x))
#define SPINSIM_REQUIRES(...) \
  SPINSIM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define SPINSIM_ACQUIRE(...) \
  SPINSIM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define SPINSIM_RELEASE(...) \
  SPINSIM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define SPINSIM_TRY_ACQUIRE(...) \
  SPINSIM_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define SPINSIM_EXCLUDES(...) SPINSIM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define SPINSIM_ASSERT_CAPABILITY(x) \
  SPINSIM_THREAD_ANNOTATION(assert_capability(x))
#define SPINSIM_RETURN_CAPABILITY(x) SPINSIM_THREAD_ANNOTATION(lock_returned(x))
#define SPINSIM_ACQUIRED_BEFORE(...) \
  SPINSIM_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define SPINSIM_ACQUIRED_AFTER(...) \
  SPINSIM_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
// Escape hatch for code TSA cannot follow (cv-predicate lambdas, test
// scaffolding). Every use carries a justifying comment — see the
// suppression policy above.
#define SPINSIM_NO_TSA SPINSIM_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace spinsim {

// ------------------------------------------------------------- lock ranks

/// Documented acquisition order; see the table in the header comment.
/// Values are spaced so a future layer can slot between two existing
/// ranks without renumbering the world.
enum class LockRank : int {
  kServiceQueue = 10,
  kShard = 20,
  /// Sits between kShard and kServiceStats on purpose: a shard worker
  /// pushes its completion while still holding its shard mutex (20 -> 25,
  /// ascending), which makes the abandoned-generation check and the push
  /// one atomic step — the watchdog can never abandon a generation whose
  /// results are concurrently landing in the completion queue.
  kServiceDone = 25,
  kServiceStats = 30,
  kClientJoin = 40,
  kFaultSwitch = 50,
  kParallelError = 90,
};

/// Toggles the runtime rank-order assertion. Defaults on when NDEBUG is
/// not defined. The bookkeeping (push/pop) always runs so the stack stays
/// consistent across toggles; only the abort-on-violation is gated.
void set_lock_rank_checks(bool enabled) noexcept;
bool lock_rank_checks_enabled() noexcept;

namespace sync_detail {

/// Pushes `rank` on the calling thread's rank stack; aborts (when checks
/// are enabled) if `rank` is not strictly greater than the current top —
/// i.e. the caller is acquiring out of documented order, which is a
/// deadlock waiting for the right schedule.
void rank_acquire(int rank);

/// Removes the most recent occurrence of `rank` from the calling
/// thread's stack (locks are not required to be released LIFO); aborts
/// when checks are enabled and the rank is not on the stack.
void rank_release(int rank) noexcept;

/// True when `rank` is somewhere on the calling thread's stack. Used by
/// Mutex::assert_held and the test suite.
bool rank_held(int rank) noexcept;

/// Current depth of the calling thread's rank stack (test hook).
int rank_depth() noexcept;

}  // namespace sync_detail

// ----------------------------------------------------------------- Mutex

/// std::mutex with a capability annotation and a mandatory LockRank.
/// Everything in src/ outside this header locks through Mutex (the
/// raw-mutex lint enforces it), so the rank table above is the complete
/// lock-order story for the codebase.
class SPINSIM_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank) noexcept : rank_(static_cast<int>(rank)) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SPINSIM_ACQUIRE() {
    sync_detail::rank_acquire(rank_);
    native_.lock();
  }
  void unlock() SPINSIM_RELEASE() {
    native_.unlock();
    sync_detail::rank_release(rank_);
  }
  bool try_lock() SPINSIM_TRY_ACQUIRE(true) {
    if (!native_.try_lock()) {
      return false;
    }
    sync_detail::rank_acquire(rank_);
    return true;
  }

  /// Runtime claim that the calling thread holds this mutex, for code
  /// paths where the capability cannot be threaded through the types.
  /// Checked against the rank stack when rank checks are enabled.
  void assert_held() const SPINSIM_ASSERT_CAPABILITY(this);

  int rank() const noexcept { return rank_; }

  /// The wrapped mutex, for CondVar only.
  std::mutex& native() noexcept { return native_; }

 private:
  std::mutex native_;
  const int rank_;
};

// ------------------------------------------------------------- LockGuard

/// Scoped exclusive hold; the annotated analogue of std::lock_guard.
class SPINSIM_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mutex) SPINSIM_ACQUIRE(mutex) : mutex_(mutex) {
    mutex.lock();  // lint:allow(bare-lock) this IS the guard implementation
  }
  ~LockGuard() SPINSIM_RELEASE() {
    mutex_.unlock();  // lint:allow(bare-lock) this IS the guard implementation
  }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mutex_;
};

// ------------------------------------------------------------ UniqueLock

/// Movable scoped hold that can be released and reacquired, and is the
/// handle CondVar waits on. Internally wraps std::unique_lock on the
/// Mutex's native handle so the condition variable can do its atomic
/// unlock-and-sleep, with the rank bookkeeping layered on the explicit
/// lock()/unlock() transitions. (During a CondVar wait the rank stays on
/// the thread's stack even while the OS briefly releases the mutex: the
/// thread still logically occupies that level of the order, and will hold
/// the lock again before the wait returns.)
class SPINSIM_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mutex) SPINSIM_ACQUIRE(mutex)
      : mutex_(&mutex), inner_(mutex.native(), std::defer_lock) {
    sync_detail::rank_acquire(mutex_->rank());
    inner_.lock();
  }
  ~UniqueLock() SPINSIM_RELEASE() {
    if (inner_.owns_lock()) {
      inner_.unlock();
      sync_detail::rank_release(mutex_->rank());
    }
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() SPINSIM_ACQUIRE() {
    sync_detail::rank_acquire(mutex_->rank());
    inner_.lock();
  }
  void unlock() SPINSIM_RELEASE() {
    inner_.unlock();
    sync_detail::rank_release(mutex_->rank());
  }
  bool owns_lock() const noexcept { return inner_.owns_lock(); }

  /// For CondVar only: the std lock the native condition variable needs.
  std::unique_lock<std::mutex>& native_lock() noexcept { return inner_; }
  Mutex& mutex() noexcept { return *mutex_; }

 private:
  Mutex* mutex_;
  std::unique_lock<std::mutex> inner_;
};

// --------------------------------------------------------------- CondVar

/// Condition variable over a spinsim::Mutex via UniqueLock. Only the
/// predicate forms are exposed: every wait in this codebase is a
/// predicate wait (bare waits invite lost-wakeup bugs). The wait bodies
/// are SPINSIM_NO_TSA because clang cannot see that std::condition_
/// variable reacquires the lock before evaluating the predicate; callers
/// still hold the capability across the wait from the analysis's point
/// of view, which matches the semantics.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { native_.notify_one(); }
  void notify_all() noexcept { native_.notify_all(); }

  template <typename Predicate>
  void wait(UniqueLock& lock, Predicate pred) SPINSIM_NO_TSA {
    native_.wait(lock.native_lock(), std::move(pred));
  }

  template <typename Rep, typename Period, typename Predicate>
  bool wait_for(UniqueLock& lock, const std::chrono::duration<Rep, Period>& d,
                Predicate pred) SPINSIM_NO_TSA {
    return native_.wait_for(lock.native_lock(), d, std::move(pred));
  }

 private:
  std::condition_variable native_;  // lint:allow(raw-mutex) wrapper site
};

}  // namespace spinsim
