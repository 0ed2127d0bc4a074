#ifndef MAGIC_UTIL_ANNOTATED_MUTEX_H_
#define MAGIC_UTIL_ANNOTATED_MUTEX_H_

#include <mutex>
#include <shared_mutex>

/// The machine-checked half of this codebase's concurrency contract.
///
/// Two independent checkers live here, covering each other's blind spots:
///
///   1. Clang Thread Safety Analysis (static). The CAPABILITY-annotated
///      Mutex/SharedMutex wrappers plus the GUARDED_BY/REQUIRES/EXCLUDES
///      macro set below let the compiler prove, per function, that every
///      guarded field is touched only under its mutex and that helpers are
///      called with exactly the locks their contract names. CI builds with
///      `-Werror=thread-safety` on Clang, so a violation is a build
///      failure, not a review comment. On GCC (which has no such analysis)
///      every macro expands to nothing and the wrappers are plain inline
///      forwarders — zero overhead, zero behavior change.
///
///   2. A runtime lock-rank checker (dynamic, Debug builds only). Static
///      analysis is per-function: it cannot see that thread A acquires
///      serve->form while thread B acquires form->serve three call frames
///      apart. The rank checker can. Every annotated mutex carries a small
///      integer rank (see lock_rank below); a thread-local stack records
///      what the current thread holds, and acquiring a mutex whose rank is
///      not strictly greater than every held rank aborts with a
///      "lock-rank violation" report — BEFORE blocking, so the bug
///      surfaces as a crash with both lock names in hand instead of a
///      deadlock in production. Compiled out entirely under NDEBUG
///      (Release/RelWithDebInfo), so the serving hot path pays nothing.
///
/// The rank order encodes the ROADMAP invariant directly. Readers take no
/// service-wide lock at all (they pin an MVCC database version under the
/// version chain's leaf mutex); what remains ranked is
///
///   sessions (60) -> form (300) -> commit (340) || data plane (>= 400)
///
/// with two refinements the prose contract always had but nothing
/// enforced:
///
///   * "The write path takes no service-tier lock" — the commit tier
///     (kCommit) ranks ABOVE form, so a writer that tried to touch
///     dispatch state while holding its commit ticket mutex would abort by
///     rank descent. SharedMutex additionally supports an exclusive-nest
///     floor (acquisitions below the floor abort while the mutex is held
///     exclusively) for seams that need a hard tier wall; the feature is
///     rank-table-independent and covered by a synthetic death test.
///   * "Overlay tables lock strictly overlay -> base" — overlay
///     symbol/predicate tables take a rank a step BELOW their base's, so
///     the reverse order (base held, overlay wanted) aborts.
namespace magic {

namespace lock_rank {

/// Ranks ascend along the sanctioned acquisition order; a thread may only
/// acquire strictly upward. Gaps are deliberate room for future tiers.
inline constexpr int kServerSessions = 60;  // net::MagicServer session map
inline constexpr int kForm = 300;           // QueryService::form_mutex_
/// The MVCC write tier: the FIFO commit ticket lock. It ranks above the
/// dispatch tier (a writer never touches form state) and below the data
/// plane (a committing writer clones relations and rebuilds their indices,
/// so it takes kRelationIndex and symbol-table locks underneath).
/// The version chain's head pointer sits behind a kLeaf mutex.
inline constexpr int kCommit = 340;         // QueryService::commit_mutex_
/// SharedMutex exclusive-nest floor boundary: a seam constructed with this
/// floor confines its exclusive holder to the data plane (>= 400). No
/// production mutex currently uses it — the MVCC write path has no
/// stop-the-world seam left — but the checker feature stays, tested
/// synthetically, for the next tier wall that needs it.
inline constexpr int kExclusiveNestFloor = 400;
/// Root symbol/predicate tables. An overlay's tables sit kOverlayStep
/// below their base's rank, so the legal order is overlay -> base and the
/// reverse aborts. Overlays nest at most a few deep before compilation
/// would collide with kExclusiveNestFloor — far beyond anything the plan
/// pipeline builds.
inline constexpr int kSymbolRoot = 450;
inline constexpr int kOverlayStep = 10;
inline constexpr int kRelationIndex = 500;  // Relation::index_mutex_
inline constexpr int kTermArena = 520;      // TermArena::mutex_
/// AnswerCache shard mutexes. Taken by fills and also by every cache
/// probe, including the inline hit path on the calling thread; still a
/// data-plane leaf: nothing ranked is acquired under one.
inline constexpr int kCacheShard = 560;     // AnswerCache::Shard::mutex
inline constexpr int kPool = 600;           // ThreadPool::mutex_
inline constexpr int kCursor = 640;         // AnswerCursor::State::mutex
/// Observability locks are leaves above the whole data plane: metric
/// registration and slow-query recording may happen from any request-path
/// or write-seam frame (both ranks sit above kExclusiveNestFloor, so they
/// stay legal under the exclusively held serve seam), and nothing ranked
/// is ever acquired under them.
inline constexpr int kMetrics = 860;        // obs::MetricsRegistry::mutex_
inline constexpr int kSlowLog = 870;        // obs::SlowQueryLog::mutex_
/// Default for mutexes outside the documented order: they may be taken
/// under anything but must be leaves (nothing ranked is taken under them).
inline constexpr int kLeaf = 900;

}  // namespace lock_rank

}  // namespace magic

// --- Clang Thread Safety Analysis attribute macros ---------------------------
//
// The standard macro set from the Clang documentation
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html), expanding to
// nothing on compilers without the analysis (GCC). Unprefixed on purpose:
// these are the names the contract (and every reader of absl/LLVM-style
// code) already knows.

#if defined(__clang__)
#define MAGIC_TSA_ATTRIBUTE__(x) __attribute__((x))
#else
#define MAGIC_TSA_ATTRIBUTE__(x)  // no-op: GCC has no thread safety analysis
#endif

#ifndef CAPABILITY
#define CAPABILITY(x) MAGIC_TSA_ATTRIBUTE__(capability(x))
#endif
#ifndef SCOPED_CAPABILITY
#define SCOPED_CAPABILITY MAGIC_TSA_ATTRIBUTE__(scoped_lockable)
#endif
#ifndef GUARDED_BY
#define GUARDED_BY(x) MAGIC_TSA_ATTRIBUTE__(guarded_by(x))
#endif
#ifndef PT_GUARDED_BY
#define PT_GUARDED_BY(x) MAGIC_TSA_ATTRIBUTE__(pt_guarded_by(x))
#endif
#ifndef REQUIRES
#define REQUIRES(...) \
  MAGIC_TSA_ATTRIBUTE__(requires_capability(__VA_ARGS__))
#endif
#ifndef REQUIRES_SHARED
#define REQUIRES_SHARED(...) \
  MAGIC_TSA_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))
#endif
#ifndef ACQUIRE
#define ACQUIRE(...) \
  MAGIC_TSA_ATTRIBUTE__(acquire_capability(__VA_ARGS__))
#endif
#ifndef ACQUIRE_SHARED
#define ACQUIRE_SHARED(...) \
  MAGIC_TSA_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))
#endif
#ifndef RELEASE
#define RELEASE(...) \
  MAGIC_TSA_ATTRIBUTE__(release_capability(__VA_ARGS__))
#endif
#ifndef RELEASE_SHARED
#define RELEASE_SHARED(...) \
  MAGIC_TSA_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))
#endif
#ifndef RELEASE_GENERIC
#define RELEASE_GENERIC(...) \
  MAGIC_TSA_ATTRIBUTE__(release_generic_capability(__VA_ARGS__))
#endif
#ifndef TRY_ACQUIRE
#define TRY_ACQUIRE(...) \
  MAGIC_TSA_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))
#endif
#ifndef TRY_ACQUIRE_SHARED
#define TRY_ACQUIRE_SHARED(...) \
  MAGIC_TSA_ATTRIBUTE__(try_acquire_shared_capability(__VA_ARGS__))
#endif
#ifndef EXCLUDES
#define EXCLUDES(...) MAGIC_TSA_ATTRIBUTE__(locks_excluded(__VA_ARGS__))
#endif
#ifndef ASSERT_CAPABILITY
#define ASSERT_CAPABILITY(x) MAGIC_TSA_ATTRIBUTE__(assert_capability(x))
#endif
#ifndef RETURN_CAPABILITY
#define RETURN_CAPABILITY(x) MAGIC_TSA_ATTRIBUTE__(lock_returned(x))
#endif
#ifndef NO_THREAD_SAFETY_ANALYSIS
#define NO_THREAD_SAFETY_ANALYSIS \
  MAGIC_TSA_ATTRIBUTE__(no_thread_safety_analysis)
#endif

// --- Runtime lock-rank checker (Debug builds) --------------------------------

#if !defined(NDEBUG) && !defined(MAGIC_NO_LOCK_RANK_CHECKS)
#define MAGIC_LOCK_RANK_CHECKS 1
#endif

#ifdef MAGIC_LOCK_RANK_CHECKS
#include <cstdio>
#include <cstdlib>
#endif

namespace magic {
namespace lock_rank_detail {

#ifdef MAGIC_LOCK_RANK_CHECKS

/// Per-thread record of held annotated locks. A fixed array: the deepest
/// sanctioned chain is 6 locks, and a thread holding 32 ranked locks is a
/// bug all by itself.
struct HeldLock {
  const void* mutex = nullptr;
  int rank = 0;
  bool exclusive = false;
  int exclusive_nest_floor = 0;  // 0 = no floor
};

struct ThreadLockStack {
  static constexpr int kMaxDepth = 32;
  HeldLock held[kMaxDepth];
  int depth = 0;
};

inline ThreadLockStack& Stack() {
  thread_local ThreadLockStack stack;
  return stack;
}

[[noreturn]] inline void Fail(const char* what, int new_rank, int held_rank) {
  std::fprintf(stderr,
               "lock-rank violation: %s (acquiring rank %d while holding "
               "rank %d)\n",
               what, new_rank, held_rank);
  std::abort();
}

/// Order check + record. Runs BEFORE the underlying lock call blocks, so a
/// violating acquisition aborts with a report instead of deadlocking.
inline void OnAcquire(const void* mutex, int rank, bool exclusive,
                      int exclusive_nest_floor) {
  ThreadLockStack& stack = Stack();
  for (int i = 0; i < stack.depth; ++i) {
    const HeldLock& held = stack.held[i];
    if (held.mutex == mutex) {
      Fail("recursive acquisition of a mutex this thread already holds",
           rank, held.rank);
    }
    if (rank <= held.rank) {
      Fail("acquisition out of rank order", rank, held.rank);
    }
    if (held.exclusive && held.exclusive_nest_floor != 0 &&
        rank < held.exclusive_nest_floor) {
      Fail("below-floor acquisition under an exclusively held seam "
           "(exclusive holder -> data plane only)",
           rank, held.rank);
    }
  }
  if (stack.depth >= ThreadLockStack::kMaxDepth) {
    Fail("lock stack overflow", rank, -1);
  }
  stack.held[stack.depth++] =
      HeldLock{mutex, rank, exclusive, exclusive_nest_floor};
}

/// Releases need not be LIFO (guards of different scopes may interleave),
/// so the entry is found by pointer, searching newest-first.
inline void OnRelease(const void* mutex) {
  ThreadLockStack& stack = Stack();
  for (int i = stack.depth - 1; i >= 0; --i) {
    if (stack.held[i].mutex != mutex) continue;
    for (int j = i; j + 1 < stack.depth; ++j) {
      stack.held[j] = stack.held[j + 1];
    }
    --stack.depth;
    return;
  }
  std::fprintf(stderr,
               "lock-rank violation: releasing a mutex this thread does "
               "not hold\n");
  std::abort();
}

#else  // !MAGIC_LOCK_RANK_CHECKS

inline void OnAcquire(const void*, int, bool, int) {}
inline void OnRelease(const void*) {}

#endif  // MAGIC_LOCK_RANK_CHECKS

}  // namespace lock_rank_detail

// --- Annotated mutex types ---------------------------------------------------

/// std::mutex with a Thread Safety capability and a lock rank. The lowercase
/// lock/unlock/try_lock aliases satisfy the standard Lockable concept so the
/// type composes with std::condition_variable_any.
class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(int rank = lock_rank::kLeaf) : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    lock_rank_detail::OnAcquire(this, rank_, /*exclusive=*/true, 0);
    mu_.lock();
  }
  bool TryLock() TRY_ACQUIRE(true) {
    // Try-locks cannot deadlock, but this codebase's contract holds them
    // to the same order — an out-of-order try is a latent design bug even
    // when it happens to fail benignly, so the check runs here too.
    lock_rank_detail::OnAcquire(this, rank_, /*exclusive=*/true, 0);
    if (mu_.try_lock()) return true;
    lock_rank_detail::OnRelease(this);
    return false;
  }
  void Unlock() RELEASE() {
    mu_.unlock();
    lock_rank_detail::OnRelease(this);
  }

  void lock() ACQUIRE() { Lock(); }
  void unlock() RELEASE() { Unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return TryLock(); }

  int rank() const { return rank_; }

 private:
  std::mutex mu_;
  const int rank_;
};

/// std::shared_mutex with a Thread Safety capability, a lock rank, and an
/// optional exclusive-nest floor: while held exclusively, this thread may
/// only acquire locks ranked at or above the floor. This is how a seam's
/// "exclusive holder touches nothing in the service tier" rule becomes a
/// runtime abort instead of a comment.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(int rank = lock_rank::kLeaf,
                       int exclusive_nest_floor = 0)
      : rank_(rank), exclusive_nest_floor_(exclusive_nest_floor) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() {
    lock_rank_detail::OnAcquire(this, rank_, /*exclusive=*/true,
                                exclusive_nest_floor_);
    mu_.lock();
  }
  void Unlock() RELEASE() {
    mu_.unlock();
    lock_rank_detail::OnRelease(this);
  }
  void LockShared() ACQUIRE_SHARED() {
    lock_rank_detail::OnAcquire(this, rank_, /*exclusive=*/false, 0);
    mu_.lock_shared();
  }
  void UnlockShared() RELEASE_SHARED() {
    mu_.unlock_shared();
    lock_rank_detail::OnRelease(this);
  }

  int rank() const { return rank_; }

 private:
  std::shared_mutex mu_;
  const int rank_;
  const int exclusive_nest_floor_;
};

// --- Scoped guards -----------------------------------------------------------

/// RAII exclusive lock on a Mutex. The lowercase lock/unlock pair makes the
/// guard itself a Lockable, which is what std::condition_variable_any::wait
/// needs — a wait releases and reacquires through the guard, so the rank
/// checker sees both transitions.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE_GENERIC() { mu_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void lock() ACQUIRE() { mu_.Lock(); }
  void unlock() RELEASE() { mu_.Unlock(); }

 private:
  Mutex& mu_;
};

/// RAII shared (reader) lock on a SharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderMutexLock() RELEASE_GENERIC() { mu_.UnlockShared(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII exclusive (writer) lock on a SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() RELEASE_GENERIC() { mu_.Unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

}  // namespace magic

#endif  // MAGIC_UTIL_ANNOTATED_MUTEX_H_
