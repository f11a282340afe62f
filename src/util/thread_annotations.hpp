// Clang Thread Safety Analysis annotations and an annotated mutex wrapper.
//
// The sharded data-plane's correctness contract (bit-identical cost at
// every thread count, see src/server/) rests on lock discipline that the
// TSan preset can only probe on executed interleavings. These macros let
// Clang prove the discipline at compile time: every mutex-guarded member
// is declared GUARDED_BY its mutex, and the `clang-tsa` CMake preset
// builds the whole tree with -Werror=thread-safety, so an unlocked access
// is a build break — before any test or fuzz seed runs.
//
// Conventions (see DESIGN.md "Static analysis"):
//   - All mutexes in src/ are bac::Mutex, never raw std::mutex (enforced
//     by the baclint `raw-mutex` rule); locking is via the RAII MutexLock.
//   - Data members touched under a lock carry GUARDED_BY(mutex_).
//   - Private member functions that assume the lock is held carry
//     REQUIRES(mutex_) instead of re-locking.
//
// On non-Clang compilers (GCC in the default presets) every macro
// expands to nothing and Mutex/MutexLock compile down to plain
// std::mutex / std::unique_lock — zero overhead either way.
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define BAC_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define BAC_THREAD_ANNOTATION(x)  // no-op off Clang
#endif

#define CAPABILITY(x) BAC_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY BAC_THREAD_ANNOTATION(scoped_lockable)
#define GUARDED_BY(x) BAC_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) BAC_THREAD_ANNOTATION(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) BAC_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) BAC_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define REQUIRES(...) \
  BAC_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  BAC_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) BAC_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  BAC_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) BAC_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  BAC_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  BAC_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) BAC_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define RETURN_CAPABILITY(x) BAC_THREAD_ANNOTATION(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  BAC_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace bac {

/// std::mutex with the `mutex` capability, so members can be declared
/// GUARDED_BY it and Clang verifies every access happens under a lock.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { m_.lock(); }
  void unlock() RELEASE() { m_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  friend class MutexLock;
  std::mutex m_;
};

/// RAII lock over a Mutex, visible to the analysis as a scoped
/// capability. Wraps std::unique_lock so condition variables can wait on
/// it: wait() atomically releases and reacquires, and the capability is
/// held on both sides of the call — exactly how the analysis models it.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m) ACQUIRE(m) : lock_(m.m_) {}
  /// Try-first acquisition: takes `m` with try_lock() and blocks only when
  /// that fails; `waited` reports whether it had to block, so callers can
  /// time real contention and skip the clock read when there is none.
  MutexLock(Mutex& m, bool& waited) ACQUIRE(m)
      : lock_(m.m_, std::try_to_lock) {
    waited = !lock_.owns_lock();
    if (waited) lock_.lock();
  }
  ~MutexLock() RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Block on `cv` until notified. Guarded members may be read in the
  /// wait loop's condition — the lock is held whenever control is in the
  /// caller. (Predicate overloads are deliberately absent: a predicate
  /// lambda is analyzed as a separate function that cannot see the
  /// caller's capability, so wait in an explicit `while (!cond)` loop.)
  void wait(std::condition_variable& cv) { cv.wait(lock_); }

 private:
  std::unique_lock<std::mutex> lock_;
};

}  // namespace bac
