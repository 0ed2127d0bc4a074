// The Debug lock-rank checker (util/annotated_mutex.h): death tests prove
// it aborts on every contract violation the static analysis cannot see —
// out-of-rank acquisition, recursive acquisition, taking a control-plane
// lock under the commit tier, below-floor acquisition under a synthetic
// exclusive seam, and base -> overlay symbol-table order — and
// pass-through tests prove every sanctioned order (including real
// QueryService traffic with live MVCC commits) is silent. In Release the
// checker compiles out, so the death tests skip and the pass-throughs
// double as plain smoke tests.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "engine/query_service.h"
#include "storage/write_batch.h"
#include "util/annotated_mutex.h"
#include "workload/generators.h"

namespace magic {
namespace {

QueryRequest MakeRequest(const Query& query) {
  QueryRequest request;
  request.query = query;
  return request;
}

// Death-test bodies deliberately die mid-acquisition, leaving locks held
// (maybe_unused: in Release the checker and its death tests compile out).
// and scopes unbalanced — exactly what the static analysis exists to
// reject — so each body lives in a NO_THREAD_SAFETY_ANALYSIS helper.

[[maybe_unused]] void LockDescendingRanks() NO_THREAD_SAFETY_ANALYSIS {
  Mutex form(lock_rank::kForm);
  Mutex sessions(lock_rank::kServerSessions);
  form.Lock();
  sessions.Lock();  // rank 60 under rank 300: out of order
}

[[maybe_unused]] void LockEqualRanks() NO_THREAD_SAFETY_ANALYSIS {
  Mutex a(lock_rank::kForm);
  Mutex b(lock_rank::kForm);
  a.Lock();
  b.Lock();  // equal ranks may never nest
}

[[maybe_unused]] void LockRecursively() NO_THREAD_SAFETY_ANALYSIS {
  Mutex m(lock_rank::kForm);
  m.Lock();
  m.Lock();
}

[[maybe_unused]] void LockFormUnderCommit() NO_THREAD_SAFETY_ANALYSIS {
  Mutex commit(lock_rank::kCommit);
  Mutex form(lock_rank::kForm);
  commit.Lock();  // the writer's FIFO ticket lock
  form.Lock();    // control plane under the commit tier: forbidden
}

[[maybe_unused]] void LockBelowFloorUnderExclusiveSeam()
    NO_THREAD_SAFETY_ANALYSIS {
  // No production mutex carries an exclusive-nest floor today (the write
  // drain that did is retired); the feature is kept and proven on a
  // synthetic seam.
  SharedMutex seam(100, lock_rank::kExclusiveNestFloor);
  Mutex form(lock_rank::kForm);
  seam.Lock();  // held exclusive
  form.Lock();  // rank 300 < floor 400: forbidden
}

[[maybe_unused]] void LockBaseThenOverlay() NO_THREAD_SAFETY_ANALYSIS {
  SharedMutex base(lock_rank::kSymbolRoot);
  SharedMutex overlay(lock_rank::kSymbolRoot - lock_rank::kOverlayStep);
  base.LockShared();
  overlay.LockShared();  // overlay -> base is the order; this is reversed
}

[[maybe_unused]] void ReleaseUnheld() NO_THREAD_SAFETY_ANALYSIS {
  Mutex m(lock_rank::kForm);
  m.Unlock();
}

#ifdef MAGIC_LOCK_RANK_CHECKS

TEST(LockRankDeathTest, OutOfOrderAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(LockDescendingRanks(), "lock-rank violation");
  EXPECT_DEATH(LockEqualRanks(), "lock-rank violation");
}

TEST(LockRankDeathTest, RecursiveAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(LockRecursively(), "lock-rank violation");
}

TEST(LockRankDeathTest, ControlPlaneUnderCommitTierAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(LockFormUnderCommit(), "lock-rank violation");
}

TEST(LockRankDeathTest, BelowFloorUnderExclusiveSeamAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(LockBelowFloorUnderExclusiveSeam(), "lock-rank violation");
}

TEST(LockRankDeathTest, BaseThenOverlaySymbolOrderAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(LockBaseThenOverlay(), "lock-rank violation");
}

TEST(LockRankDeathTest, ReleasingAnUnheldMutexAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(ReleaseUnheld(), "lock-rank violation");
}

#else

TEST(LockRankDeathTest, CheckerCompiledOutInRelease) {
  GTEST_SKIP() << "lock-rank checks are Debug-only (MAGIC_LOCK_RANK_CHECKS)";
}

#endif  // MAGIC_LOCK_RANK_CHECKS

// --- Sanctioned orders must be silent ---------------------------------------

TEST(LockRankTest, WorkerOrderIsSilent) {
  // sessions -> form -> data plane -> pool -> cursor: the full reader
  // chain (readers pin a version instead of taking a seam lock, so no
  // serve-tier mutex appears), deepest sanctioned nesting in the tree.
  Mutex sessions(lock_rank::kServerSessions);
  Mutex form(lock_rank::kForm);
  SharedMutex symbols(lock_rank::kSymbolRoot);
  Mutex index(lock_rank::kRelationIndex);
  Mutex arena(lock_rank::kTermArena);
  Mutex shard(lock_rank::kCacheShard);
  Mutex pool(lock_rank::kPool);
  Mutex cursor(lock_rank::kCursor);
  {
    MutexLock session_map(sessions);
    MutexLock compile(form);
    {
      ReaderMutexLock names(symbols);
    }
    MutexLock probe(index);
    MutexLock intern(arena);
    MutexLock fill(shard);
    MutexLock submit(pool);
    MutexLock stream(cursor);
  }
  SUCCEED();
}

TEST(LockRankTest, CommitTierMayTakeDataPlaneLocks) {
  // ApplyWrites holds its FIFO ticket lock, and the storage layer's
  // table/index mutexes nest inside it — the whole writer chain must stay
  // legal.
  Mutex commit(lock_rank::kCommit);
  SharedMutex symbols(lock_rank::kSymbolRoot);
  Mutex index(lock_rank::kRelationIndex);
  {
    MutexLock ticket(commit);
    ReaderMutexLock names(symbols);
    MutexLock rebuild(index);
  }
  SUCCEED();
}

TEST(LockRankTest, ExclusiveSeamMayTakeDataPlaneLocks) {
  // The exclusive-nest floor forbids only BELOW-floor locks; data-plane
  // mutexes at or above the floor stay legal under a held seam. Proven on
  // a synthetic seam (no production SharedMutex carries a floor today).
  SharedMutex seam(100, lock_rank::kExclusiveNestFloor);
  SharedMutex symbols(lock_rank::kSymbolRoot);
  Mutex index(lock_rank::kRelationIndex);
  {
    WriterMutexLock exclusive(seam);
    ReaderMutexLock names(symbols);
    MutexLock rebuild(index);
  }
  SUCCEED();
}

TEST(LockRankTest, FailedTryLockLeavesNoHeldRecord) {
  // A TryLock that loses the race must pop its provisional record, or the
  // next (perfectly legal) acquisition would trip over a ghost entry.
  Mutex form(lock_rank::kForm);
  Mutex sessions(lock_rank::kServerSessions);
  form.Lock();
  std::thread contender([&] {
    EXPECT_FALSE(form.TryLock());
    MutexLock ok(sessions);  // would abort if the failed try left a record
  });
  contender.join();
  form.Unlock();
  SUCCEED();
}

TEST(LockRankTest, OutOfLifoReleaseIsSupported) {
  // Guards of interleaved scopes release out of stack order; the checker
  // must find the entry by identity, not by position.
  Mutex low(lock_rank::kServerSessions);
  Mutex high(lock_rank::kForm);
  low.Lock();
  high.Lock();
  low.Unlock();
  high.Unlock();
  SUCCEED();
}

TEST(LockRankTest, RealServiceTrafficIsSilent) {
  // End-to-end: compile, evaluate concurrently, stream, commit a version
  // through the FIFO ticket, and read after it — every lock the service
  // takes runs through the checker (in Debug). The assertions are
  // ordinary; the test's real teeth are "no abort".
  Workload w = MakeAncestorChain(32);
  QueryServiceOptions options;
  options.num_threads = 4;
  QueryService service(w.program, w.db, options);

  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        QueryAnswer answer = service.Answer(MakeRequest(w.query));
        EXPECT_TRUE(answer.status.ok());
        EXPECT_EQ(answer.tuples.size(), 31u);
      }
    });
  }
  for (std::thread& c : clients) c.join();

  Universe& u = *w.universe;
  PredId par = *u.predicates().Find(*u.symbols().Find("par"), 2);
  WriteBatch batch;
  batch.Insert(par, {u.Constant("c31"), u.Constant("c99")});
  Result<WriteResult> applied = service.ApplyWrites(batch);
  ASSERT_TRUE(applied.ok());

  QueryAnswer after = service.Answer(MakeRequest(w.query));
  EXPECT_TRUE(after.status.ok());
  EXPECT_EQ(after.tuples.size(), 32u);  // the new edge is reachable

  AnswerCursor cursor = service.Stream(MakeRequest(w.query));
  std::vector<std::vector<TermId>> rows;
  size_t streamed = 0;
  while (cursor.Next(8, &rows)) streamed += rows.size();
  EXPECT_TRUE(cursor.Finish().status.ok());
  EXPECT_EQ(streamed, 32u);
}

}  // namespace
}  // namespace magic
