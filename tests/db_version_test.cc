// The MVCC spine (storage/db_version.h): pinned snapshots are immutable
// under commits (copy-on-write isolates them), a commit publishes one
// version iff its batch net-changed some relation (no-op, duplicate-only
// and empty-clear batches publish nothing, reads never publish), versions
// retire when their last pin drops, and — the property the whole design
// exists for — concurrent readers pinned mid-write see exactly version N
// or N+1, never a torn mix. Run under TSan/ASan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/query_service.h"
#include "storage/db_version.h"
#include "storage/write_batch.h"
#include "workload/generators.h"

namespace magic {
namespace {

PredId ParPred(const Workload& w) {
  Universe& u = *w.universe;
  return *u.predicates().Find(*u.symbols().Find("par"), 2);
}

TEST(DbVersionTest, PinReturnsStableSnapshotAcrossCommits) {
  Workload w = MakeAncestorChain(4);  // par: c0->c1->c2->c3 (3 tuples)
  Universe& u = *w.universe;
  PredId par = ParPred(w);
  VersionChain chain(w.db);

  auto pinned = chain.Pin();
  EXPECT_EQ(pinned->version(), 1u);
  ASSERT_NE(pinned->db().Find(par), nullptr);
  EXPECT_EQ(pinned->db().Find(par)->size(), 3u);

  WriteBatch batch;
  batch.Insert(par, {u.Constant("c3"), u.Constant("c4")});
  WriteResult result = chain.Commit(w.db, batch);
  EXPECT_EQ(result.inserted, 1u);

  // The pin still reads the exact pre-commit tuple set (the base
  // copy-on-wrote the shared relation instead of mutating it), while a
  // fresh pin sees the published version 2.
  EXPECT_EQ(pinned->db().Find(par)->size(), 3u);
  auto head = chain.Pin();
  EXPECT_EQ(head->version(), 2u);
  EXPECT_EQ(head->db().Find(par)->size(), 4u);
  EXPECT_EQ(chain.current_version(), 2u);
  EXPECT_EQ(chain.versions_published(), 2u);
}

TEST(DbVersionTest, NoOpCommitPublishesNothing) {
  Workload w = MakeAncestorChain(4);
  Universe& u = *w.universe;
  PredId par = ParPred(w);
  VersionChain chain(w.db);

  WriteBatch noop;
  noop.Insert(par, {u.Constant("c0"), u.Constant("c1")});   // duplicate
  noop.Retract(par, {u.Constant("c9"), u.Constant("c0")});  // absent
  WriteResult result = chain.Commit(w.db, noop);
  EXPECT_EQ(result.relations_mutated, 0u);
  EXPECT_EQ(chain.versions_published(), 1u);
  EXPECT_EQ(chain.Pin()->version(), 1u);
  EXPECT_EQ(chain.current_version(), 1u);
}

TEST(DbVersionTest, ManyMutationsOfOneRelationPublishOneVersion) {
  Workload w = MakeAncestorChain(4);
  Universe& u = *w.universe;
  PredId par = ParPred(w);
  VersionChain chain(w.db);
  const TermId c0 = u.Constant("c0");

  // Five new tuples and a retract of one of them: one relation mutated,
  // one version for the whole batch.
  WriteBatch batch;
  for (int i = 1; i <= 5; ++i) {
    batch.Insert(par, {c0, u.Constant("m" + std::to_string(i))});
  }
  batch.Retract(par, {c0, u.Constant("m3")});
  WriteResult result = chain.Commit(w.db, batch);
  EXPECT_EQ(result.inserted, 5u);
  EXPECT_EQ(result.retracted, 1u);
  EXPECT_EQ(result.relations_mutated, 1u);
  EXPECT_EQ(chain.versions_published(), 2u);
  EXPECT_EQ(chain.Pin()->db().FactCount(par), 7u);

  WriteBatch noop;
  noop.Insert(par, {c0, u.Constant("m1")});  // duplicate
  EXPECT_EQ(chain.Commit(w.db, noop).relations_mutated, 0u);
  EXPECT_EQ(chain.versions_published(), 2u);  // nothing changed

  // The next net-changing batch publishes again.
  WriteBatch one;
  one.Insert(par, {c0, u.Constant("m9")});
  EXPECT_EQ(chain.Commit(w.db, one).relations_mutated, 1u);
  EXPECT_EQ(chain.versions_published(), 3u);
  EXPECT_EQ(chain.current_version(), 3u);
}

TEST(DbVersionTest, DuplicateFactsPublishNothing) {
  Workload w = MakeAncestorChain(3);  // par: c0 -> c1 -> c2
  Universe& u = *w.universe;
  PredId par = ParPred(w);

  // Building the base: a duplicate AddFact is OK and adds nothing, and a
  // rejected fact (wrong arity) mutates nothing.
  ASSERT_TRUE(w.db.AddFact(par, {u.Constant("c0"), u.Constant("c1")}).ok());
  EXPECT_EQ(w.db.FactCount(par), 2u);
  EXPECT_FALSE(w.db.AddFact(par, {u.Constant("c0")}).ok());
  EXPECT_EQ(w.db.FactCount(par), 2u);

  // Serving it: a duplicate insert publishes no version, a new one does.
  VersionChain chain(w.db);
  WriteBatch dup;
  dup.Insert(par, {u.Constant("c1"), u.Constant("c2")});
  WriteResult quiet = chain.Commit(w.db, dup);
  EXPECT_EQ(quiet.inserted, 0u);
  EXPECT_EQ(quiet.relations_mutated, 0u);
  EXPECT_EQ(chain.versions_published(), 1u);

  WriteBatch fresh;
  fresh.Insert(par, {u.Constant("c2"), u.Constant("c3")});
  WriteResult added = chain.Commit(w.db, fresh);
  EXPECT_EQ(added.inserted, 1u);
  EXPECT_EQ(added.relations_mutated, 1u);
  EXPECT_EQ(chain.versions_published(), 2u);
  EXPECT_EQ(chain.Pin()->db().FactCount(par), 3u);
}

TEST(DbVersionTest, ReadsPublishNothing) {
  Workload w = MakeAncestorChain(4);
  PredId par = ParPred(w);
  VersionChain chain(w.db);

  auto pinned = chain.Pin();
  const Database& db = pinned->db();
  ASSERT_NE(db.Find(par), nullptr);
  EXPECT_EQ(db.FactCount(par), 3u);
  EXPECT_EQ(db.TotalFacts(), w.db.TotalFacts());
  (void)db.relations();
  std::vector<uint32_t> rows;
  const std::vector<TermId> key = {w.universe->Constant("c0")};
  db.Find(par)->Probe(/*mask=*/0b01, key, 0, 3, &rows);  // builds an index
  EXPECT_EQ(rows.size(), 1u);

  // Reads (pins included) never publish: the head is the same object.
  EXPECT_EQ(chain.Pin(), pinned);
  EXPECT_EQ(chain.current_version(), 1u);
  EXPECT_EQ(chain.versions_published(), 1u);
}

TEST(DbVersionTest, ClearPublishesOnceAndEmptyClearsPublishNothing) {
  Workload w = MakeAncestorChain(4);
  Universe& u = *w.universe;
  PredId par = ParPred(w);
  VersionChain chain(w.db);

  WriteBatch wipe;
  wipe.Clear(par);
  WriteResult wiped = chain.Commit(w.db, wipe);
  EXPECT_EQ(wiped.cleared, 1u);
  EXPECT_EQ(wiped.relations_mutated, 1u);
  EXPECT_EQ(chain.versions_published(), 2u);
  EXPECT_EQ(chain.Pin()->db().FactCount(par), 0u);

  // Clearing the now-empty relation is a no-op.
  WriteResult rewiped = chain.Commit(w.db, wipe);
  EXPECT_EQ(rewiped.cleared, 0u);
  EXPECT_EQ(rewiped.relations_mutated, 0u);
  EXPECT_EQ(chain.versions_published(), 2u);

  // So is clearing a never-created relation (absent == empty).
  PredId anc = *u.predicates().Find(*u.symbols().Find("anc"), 2);
  ASSERT_EQ(w.db.Find(anc), nullptr);
  WriteBatch absent;
  absent.Clear(anc);
  EXPECT_EQ(chain.Commit(w.db, absent).relations_mutated, 0u);
  EXPECT_EQ(chain.versions_published(), 2u);
}

TEST(DbVersionTest, VersionsRetireWhenTheLastPinDrops) {
  Workload w = MakeAncestorChain(4);
  Universe& u = *w.universe;
  PredId par = ParPred(w);
  VersionChain chain(w.db);

  auto old_pin = chain.Pin();
  WriteBatch batch;
  batch.Insert(par, {u.Constant("c3"), u.Constant("c4")});
  (void)chain.Commit(w.db, batch);

  // Version 1 is alive only through old_pin; version 2 is the head.
  EXPECT_EQ(chain.versions_published(), 2u);
  EXPECT_EQ(chain.versions_retired(), 0u);
  EXPECT_EQ(chain.versions_live(), 2u);

  old_pin.reset();
  EXPECT_EQ(chain.versions_retired(), 1u);
  EXPECT_EQ(chain.versions_live(), 1u);
}

TEST(DbVersionTest, CopyOnWriteSharesUntouchedRelations) {
  Workload w = MakeSameGenNonlinear(3, 2);  // base preds up/flat/down
  Universe& u = *w.universe;
  PredId up = *u.predicates().Find(*u.symbols().Find("up"), 2);
  PredId flat = *u.predicates().Find(*u.symbols().Find("flat"), 2);
  VersionChain chain(w.db);

  auto pinned = chain.Pin();
  const Relation* pinned_up = pinned->db().Find(up);
  const Relation* pinned_flat = pinned->db().Find(flat);
  ASSERT_NE(pinned_up, nullptr);
  ASSERT_NE(pinned_flat, nullptr);

  WriteBatch batch;
  batch.Insert(up, {u.Constant("cw_a"), u.Constant("cw_b")});
  (void)chain.Commit(w.db, batch);

  // The untouched relation is structurally shared (same object); the
  // mutated one was cloned, so the base now holds a different object and
  // the pinned snapshot's tuple set is unchanged.
  EXPECT_EQ(pinned->db().Find(flat), pinned_flat);
  EXPECT_EQ(w.db.Find(flat), pinned_flat);
  EXPECT_NE(w.db.Find(up), pinned_up);
  EXPECT_FALSE(pinned_up->Contains(
      std::vector<TermId>{u.Constant("cw_a"), u.Constant("cw_b")}));
}

TEST(DbVersionTest, ReadersPinnedMidWriteSeeWholeVersionsOnly) {
  // The versioned-read property test: 8 reader threads pin and evaluate
  // through a live QueryService while a writer walks a single fact
  // through a sequence of states, each batch retracting state i-1 and
  // inserting state i. Every answer must be exactly one of the published
  // states (one row, never zero or two — a torn pin would see the
  // mid-batch emptiness or both rows), and the observed state index must
  // be non-decreasing per thread once writes are ordered (each read sees
  // version N or N+1, never an older one after a newer one).
  constexpr int kStates = 64;
  Workload w = MakeAncestorChain(2);  // par: the single edge c0 -> c1
  Universe& u = *w.universe;
  PredId par = ParPred(w);
  TermId c0 = u.Constant("c0");
  std::vector<TermId> states;
  states.reserve(kStates);
  for (int i = 0; i < kStates; ++i) {
    states.push_back(u.Constant("s" + std::to_string(i)));
  }
  // Start in state 0: replace the seed edge with c0 -> s0.
  {
    WriteBatch setup;
    setup.Retract(par, {c0, u.Constant("c1")});
    setup.Insert(par, {c0, states[0]});
    ASSERT_TRUE(w.db.Apply(setup).ok());
  }

  QueryServiceOptions options;
  options.num_threads = 8;
  QueryService service(w.program, w.db, options);
  QueryRequest exemplar;
  exemplar.query = w.query;
  auto prepared = service.Prepare(exemplar);
  ASSERT_TRUE(prepared.ok());
  QueryService::FormHandle handle = *prepared;
  const std::vector<TermId> seed = {c0};
  ASSERT_EQ(service.Answer(handle, seed).tuples.size(), 1u);

  std::atomic<bool> writer_done{false};
  std::atomic<int> violations{0};
  std::thread writer([&] {
    for (int i = 1; i < kStates; ++i) {
      WriteBatch batch;
      batch.Retract(par, {c0, states[i - 1]});
      batch.Insert(par, {c0, states[i]});
      auto applied = service.ApplyWrites(batch);
      if (!applied.ok() || applied->relations_mutated != 1) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    writer_done.store(true, std::memory_order_seq_cst);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&] {
      int last_seen = 0;
      while (!writer_done.load(std::memory_order_seq_cst)) {
        QueryAnswer answer = service.Answer(handle, seed);
        if (!answer.status.ok() || answer.tuples.size() != 1 ||
            answer.tuples[0].size() != 1) {
          // Zero rows = a pin caught the mid-batch gap; two = both states.
          violations.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const TermId value = answer.tuples[0][0];
        int index = -1;
        for (int i = 0; i < kStates; ++i) {
          if (states[i] == value) {
            index = i;
            break;
          }
        }
        if (index < last_seen) {
          // Went back in time: served a version older than one already
          // observed on this thread.
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        last_seen = index;
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(violations.load(), 0);

  // Settled: everyone sees the final state, and the chain retires old
  // versions as the last pins drop (only the head stays live).
  QueryAnswer final_read = service.Answer(handle, seed);
  ASSERT_EQ(final_read.tuples.size(), 1u);
  EXPECT_EQ(final_read.tuples[0][0], states[kStates - 1]);
  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.versions_published - stats.versions_retired, 1u);
}

}  // namespace
}  // namespace magic
