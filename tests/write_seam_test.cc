// The EDB write path: WriteBatch validation, Database::Apply's net-change
// accounting (each mutated relation counted once, none for no-op or
// net-zero batches, so those publish no version),
// QueryService::ApplyWrites publishing MVCC versions on a live
// service, retraction correctness against from-scratch evaluation, the
// 8-thread readers-vs-writer hammer (post-write reads are never stale;
// in-flight answers are internally consistent — whole batches, never
// halves; writers never drain readers), and publish latency staying
// independent of the longest in-flight fixpoint.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/query_service.h"
#include "storage/db_version.h"
#include "storage/write_batch.h"
#include "workload/generators.h"

namespace magic {
namespace {

Query InstanceAt(const Workload& w, const std::string& node) {
  Query query = w.query;
  query.goal.args[0] = w.universe->Constant(node);
  return query;
}

PredId ParPred(const Workload& w) {
  Universe& u = *w.universe;
  return *u.predicates().Find(*u.symbols().Find("par"), 2);
}

TEST(WriteSeamTest, WriteBatchValidatesArityAndGroundness) {
  Workload w = MakeAncestorChain(4);
  Universe& u = *w.universe;
  PredId par = ParPred(w);

  WriteBatch ok;
  ok.Insert(par, {u.Constant("c0"), u.Constant("c9")});
  ok.Retract(par, {u.Constant("c0"), u.Constant("c1")});
  ok.Clear(par);
  EXPECT_TRUE(ok.Validate(u).ok());

  WriteBatch bad_arity;
  bad_arity.Insert(par, {u.Constant("c0")});
  EXPECT_EQ(bad_arity.Validate(u).code(), StatusCode::kInvalidArgument);

  WriteBatch not_ground;
  not_ground.Insert(par, {u.Constant("c0"), u.FreshVariable("Y")});
  EXPECT_EQ(not_ground.Validate(u).code(), StatusCode::kInvalidArgument);

  WriteBatch bad_pred;
  bad_pred.Clear(static_cast<PredId>(u.predicates().size() + 7));
  EXPECT_EQ(bad_pred.Validate(u).code(), StatusCode::kInvalidArgument);

  // A rejected batch applies nothing: the valid retract ahead of the bad
  // insert must not have gone through.
  WriteBatch half_bad;
  half_bad.Retract(par, {u.Constant("c0"), u.Constant("c1")});
  half_bad.Insert(par, {u.Constant("c0")});
  EXPECT_FALSE(w.db.Apply(half_bad).ok());
  EXPECT_EQ(w.db.FactCount(par), 3u);
  EXPECT_TRUE(w.db.Find(par)->Contains(
      std::vector<TermId>{u.Constant("c0"), u.Constant("c1")}));
}

TEST(WriteSeamTest, ApplyCountsEachMutatedRelationOnce) {
  Workload w = MakeSameGenNonlinear(3, 2);  // base preds up/flat/down
  Universe& u = *w.universe;
  PredId up = *u.predicates().Find(*u.symbols().Find("up"), 2);
  PredId flat = *u.predicates().Find(*u.symbols().Find("flat"), 2);
  TermId a = u.Constant("wa");
  TermId b = u.Constant("wb");
  TermId c = u.Constant("wc");
  VersionChain chain(w.db);
  const size_t up_before = w.db.FactCount(up);
  const size_t flat_before = w.db.FactCount(flat);

  // Three new tuples into `up`, one into `flat`, plus no-ops sprinkled in:
  // each mutated relation counts once, and the batch is one version.
  WriteBatch batch;
  batch.Insert(up, {a, b});
  batch.Insert(up, {b, c});
  batch.Insert(up, {a, b});  // duplicate of an op in this very batch
  batch.Insert(up, {a, c});
  batch.Retract(flat, {a, c});  // absent: no-op
  batch.Insert(flat, {a, c});
  ASSERT_TRUE(batch.Validate(u).ok());
  WriteResult result = chain.Commit(w.db, batch);
  EXPECT_EQ(result.inserted, 4u);
  EXPECT_EQ(result.retracted, 0u);
  EXPECT_EQ(result.relations_mutated, 2u);
  EXPECT_EQ(w.db.FactCount(up), up_before + 3);
  EXPECT_EQ(w.db.FactCount(flat), flat_before + 1);
  EXPECT_EQ(chain.versions_published(), 2u);

  // A duplicate-only batch mutates nothing and publishes nothing.
  WriteBatch noop;
  noop.Insert(up, {a, b});
  noop.Retract(up, {c, a});  // absent
  WriteResult quiet = chain.Commit(w.db, noop);
  EXPECT_EQ(quiet.relations_mutated, 0u);
  EXPECT_EQ(chain.versions_published(), 2u);

  // A clear of a non-empty relation is one mutation; repeating it on the
  // now-empty relation is a no-op (batch form of the empty-clear rule).
  WriteBatch wipe;
  wipe.Clear(flat);
  WriteResult wiped = chain.Commit(w.db, wipe);
  EXPECT_EQ(wiped.cleared, 1u);
  EXPECT_EQ(wiped.relations_mutated, 1u);
  EXPECT_EQ(chain.versions_published(), 3u);
  WriteResult rewiped = chain.Commit(w.db, wipe);
  EXPECT_EQ(rewiped.cleared, 0u);
  EXPECT_EQ(rewiped.relations_mutated, 0u);
  EXPECT_EQ(chain.versions_published(), 3u);
}

TEST(WriteSeamTest, ClearThenIdenticalReinsertIsNetZero) {
  // A batch that clears a relation and reinserts exactly the tuples it
  // held changes nothing: net accounting compares the final tuple set
  // against the pre-batch one, so no relation counts as mutated, no
  // version is published, and the base keeps its original relation
  // object (with its warm indices).
  Workload w = MakeAncestorChain(3);  // par: c0 -> c1 -> c2
  Universe& u = *w.universe;
  PredId par = ParPred(w);
  const std::vector<TermId> e01 = {u.Constant("c0"), u.Constant("c1")};
  const std::vector<TermId> e12 = {u.Constant("c1"), u.Constant("c2")};
  VersionChain chain(w.db);
  const Relation* original = w.db.Find(par);

  WriteBatch same;
  same.Clear(par);
  same.Insert(par, e01);
  same.Insert(par, e12);
  WriteResult applied = chain.Commit(w.db, same);
  EXPECT_EQ(applied.cleared, 1u);  // the clear did run on a non-empty rel
  EXPECT_EQ(applied.inserted, 2u);
  EXPECT_EQ(applied.relations_mutated, 0u);  // ...but the net effect is nil
  EXPECT_EQ(chain.versions_published(), 1u);
  EXPECT_EQ(w.db.Find(par), original);
  EXPECT_EQ(w.db.FactCount(par), 2u);

  // Same-size but different content after the clear: a real mutation.
  WriteBatch different;
  different.Clear(par);
  different.Insert(par, e01);
  different.Insert(par, {u.Constant("c8"), u.Constant("c9")});
  applied = chain.Commit(w.db, different);
  EXPECT_EQ(applied.relations_mutated, 1u);
  EXPECT_EQ(chain.versions_published(), 2u);
  EXPECT_EQ(chain.Pin()->db().FactCount(par), 2u);
  EXPECT_FALSE(chain.Pin()->db().Find(par)->Contains(e12));
}

TEST(WriteSeamTest, ApplyWritesMutatesALiveService) {
  Workload w = MakeAncestorChain(6);  // par: c0 -> ... -> c5
  Universe& u = *w.universe;
  PredId par = ParPred(w);
  TermId c5 = u.Constant("c5");
  TermId c6 = u.Constant("c6");

  QueryServiceOptions options;
  options.num_threads = 4;
  QueryService service(w.program, w.db, options);
  QueryRequest exemplar;
  exemplar.query = w.query;
  auto handle = service.Prepare(exemplar);
  ASSERT_TRUE(handle.ok());
  std::vector<TermId> seed = {u.Constant("c0")};

  ASSERT_EQ(service.Answer(*handle, seed).tuples.size(), 5u);
  EXPECT_TRUE(service.Answer(*handle, seed).from_cache);  // warm

  // Insert: the chain grows, the warm entry retires, the next read sees
  // six ancestors.
  WriteBatch grow;
  grow.Insert(par, {c5, c6});
  auto grown = service.ApplyWrites(grow);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  EXPECT_EQ(grown->inserted, 1u);
  QueryAnswer after_insert = service.Answer(*handle, seed);
  EXPECT_FALSE(after_insert.from_cache);
  EXPECT_EQ(after_insert.tuples.size(), 6u);

  // Retract: both edges of the tail, in one batch.
  WriteBatch shrink;
  shrink.Retract(par, {c5, c6});
  shrink.Retract(par, {u.Constant("c4"), c5});
  auto shrunk = service.ApplyWrites(shrink);
  ASSERT_TRUE(shrunk.ok());
  EXPECT_EQ(shrunk->retracted, 2u);
  EXPECT_EQ(service.Answer(*handle, seed).tuples.size(), 4u);

  // Clear: the whole derived set goes with the base facts.
  WriteBatch wipe;
  wipe.Clear(par);
  ASSERT_TRUE(service.ApplyWrites(wipe).ok());
  EXPECT_TRUE(service.Answer(*handle, seed).tuples.empty());

  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.writes_applied, 3u);
}

TEST(WriteSeamTest, DuplicateOnlyBatchKeepsTheCacheWarm) {
  // Service-level regression: a batch that does not change any tuple set
  // must not invalidate warm answers — no new version, no spurious
  // re-evaluation.
  Workload w = MakeAncestorChain(8);
  Universe& u = *w.universe;
  PredId par = ParPred(w);

  QueryServiceOptions options;
  options.num_threads = 2;
  QueryService service(w.program, w.db, options);
  QueryRequest exemplar;
  exemplar.query = w.query;
  auto handle = service.Prepare(exemplar);
  ASSERT_TRUE(handle.ok());
  std::vector<TermId> seed = {u.Constant("c0")};
  ASSERT_TRUE(service.Answer(*handle, seed).status.ok());  // fill

  WriteBatch noop;
  noop.Insert(par, {u.Constant("c0"), u.Constant("c1")});  // duplicate
  noop.Retract(par, {u.Constant("c7"), u.Constant("c0")});  // absent
  auto applied = service.ApplyWrites(noop);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied->relations_mutated, 0u);

  QueryAnswer warm = service.Answer(*handle, seed);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.tuples.size(), 7u);

  // Net-zero batches keep it warm too: the transient states of an
  // insert-then-retract (and a retract-then-reinsert) are never
  // observable — readers only ever see published versions, and a net-zero
  // batch publishes none — so the final tuple set is unchanged and no
  // invalidation is owed.
  TermId c0 = u.Constant("c0");
  TermId c1 = u.Constant("c1");
  TermId ghost = u.Constant("net_ghost");
  WriteBatch net_zero;
  net_zero.Insert(par, {c0, ghost});   // absent: transient insert...
  net_zero.Retract(par, {c0, ghost});  // ...undone within the batch
  net_zero.Retract(par, {c0, c1});     // present: transient retract...
  net_zero.Insert(par, {c0, c1});      // ...undone within the batch
  auto net_applied = service.ApplyWrites(net_zero);
  ASSERT_TRUE(net_applied.ok());
  EXPECT_EQ(net_applied->inserted, 2u);   // the ops themselves did run
  EXPECT_EQ(net_applied->retracted, 2u);
  EXPECT_EQ(net_applied->relations_mutated, 0u);  // but the net is zero

  QueryAnswer still_warm = service.Answer(*handle, seed);
  EXPECT_TRUE(still_warm.from_cache);
  EXPECT_EQ(still_warm.tuples.size(), 7u);
}

TEST(WriteSeamTest, CowBytesFollowTheTouchedChunksNotTheRelation) {
  // A one-tuple insert into a 10^5-row relation copies only the chunks the
  // write lands in (its row's, its dedup slot's, and its index entry's and
  // row list's): at most a few chunks, against ~8 MB of relation. A
  // duplicate-only batch copies nothing.
  Workload w = MakeAncestorChain(100'001);
  Universe& u = *w.universe;
  PredId par = ParPred(w);
  const Relation* rel = w.db.Find(par);
  ASSERT_EQ(rel->size(), 100'000u);
  const TermId c0 = u.Constant("c0");
  std::vector<uint32_t> rows;
  rel->Probe(0b01, {&c0, 1}, 0, rel->size(), &rows);  // first-column index

  QueryServiceOptions options;
  options.num_threads = 1;
  QueryService service(w.program, w.db, options);
  obs::Counter* cow = service.metrics().GetCounter("magicdb_write_cow_bytes");
  ASSERT_EQ(cow->value(), 0u);

  WriteBatch insert;
  insert.Insert(par, {u.Constant("c5"), u.Constant("cow_fresh")});
  auto inserted = service.ApplyWrites(insert);
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  ASSERT_EQ(inserted->relations_mutated, 1u);
  EXPECT_GT(inserted->cow_bytes, 0u);
  EXPECT_LE(inserted->cow_bytes, 4 * kChunkBytes);
  EXPECT_EQ(cow->value(), inserted->cow_bytes);

  WriteBatch duplicate;
  duplicate.Insert(par, {c0, u.Constant("c1")});
  auto unchanged = service.ApplyWrites(duplicate);
  ASSERT_TRUE(unchanged.ok());
  EXPECT_EQ(unchanged->relations_mutated, 0u);
  EXPECT_EQ(unchanged->cow_bytes, 0u);
  EXPECT_EQ(cow->value(), inserted->cow_bytes);
}

TEST(WriteSeamTest, RetractionMatchesFromScratchEvaluation) {
  // The property the paper's equivalence grants per database instance:
  // after any sequence of retractions, the served answers (for magic,
  // semi-naive, and top-down plans alike) equal a from-scratch evaluation
  // over a database built directly in the mutated state. Small random
  // EDBs, several retraction rounds each.
  constexpr int kNodes = 9;
  const Strategy strategies[] = {Strategy::kSupplementaryMagic,
                                 Strategy::kSemiNaiveBottomUp,
                                 Strategy::kTopDown};
  for (uint32_t trial = 0; trial < 6; ++trial) {
    Workload w = MakeAncestorRandom(kNodes, /*edges=*/18, /*seed=*/trial);
    Universe& u = *w.universe;
    PredId par = ParPred(w);

    // The live facts, mirrored as plain tuples so a from-scratch database
    // can be rebuilt at every step.
    std::set<std::pair<TermId, TermId>> facts;
    {
      const Relation* rel = w.db.Find(par);
      ASSERT_NE(rel, nullptr);
      for (size_t row = 0; row < rel->size(); ++row) {
        facts.emplace(rel->Row(row)[0], rel->Row(row)[1]);
      }
    }

    QueryServiceOptions options;
    options.num_threads = 4;
    QueryService service(w.program, w.db, options);
    std::vector<QueryService::FormHandle> handles;
    for (Strategy strategy : strategies) {
      QueryRequest request;
      request.query = w.query;
      request.strategy = strategy;
      auto handle = service.Prepare(request);
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      handles.push_back(*handle);
    }

    std::mt19937 rng(0xbeef + trial);
    for (int round = 0; round < 4 && !facts.empty(); ++round) {
      // Retract a random live fact (plus one absent no-op for spice).
      auto it = facts.begin();
      std::advance(it, rng() % facts.size());
      WriteBatch batch;
      batch.Retract(par, {it->first, it->second});
      batch.Retract(par, {u.Constant("ghost_a"), u.Constant("ghost_b")});
      facts.erase(it);
      auto applied = service.ApplyWrites(batch);
      ASSERT_TRUE(applied.ok()) << applied.status().ToString();
      ASSERT_EQ(applied->retracted, 1u);

      // From-scratch database in the mutated state, same universe (term
      // ids stay comparable).
      Database scratch(w.universe);
      for (const auto& [x, y] : facts) {
        Relation& rel = scratch.GetOrCreate(par);
        std::vector<TermId> tuple = {x, y};
        rel.Insert(tuple);
      }

      for (int start = 0; start < kNodes; start += 3) {
        Query query = InstanceAt(w, "c" + std::to_string(start));
        std::vector<TermId> seed = {query.goal.args[0]};
        for (size_t s = 0; s < std::size(strategies); ++s) {
          EngineOptions engine_options;
          engine_options.strategy = strategies[s];
          QueryAnswer expected =
              QueryEngine(engine_options).Run(w.program, query, scratch);
          ASSERT_TRUE(expected.status.ok()) << expected.status.ToString();
          QueryAnswer served = service.Answer(handles[s], seed);
          ASSERT_TRUE(served.status.ok()) << served.status.ToString();
          EXPECT_EQ(served.tuples, expected.tuples)
              << "trial " << trial << " round " << round << " start n"
              << start << " strategy " << StrategyName(strategies[s]);
        }
      }
    }
  }
}

TEST(WriteSeamTest, ReadersVsWriterHammerIsNeverStaleOrTorn) {
  // 8 reader threads hammer one seed while a writer toggles a two-edge
  // tail extension through ApplyWrites. Two invariants:
  //  * atomicity: every answer has 7 rows (tail absent) or 9 (tail
  //    present) — 8 would mean a reader saw half a batch;
  //  * freshness: a read that no write overlapped (seqlock check on the
  //    started/completed counters) sees exactly the state of the last
  //    completed write, and once the writer is done every read sees the
  //    final state.
  Workload w = MakeAncestorChain(8);  // c0 -> ... -> c7: 7 ancestors of c0
  Universe& u = *w.universe;
  PredId par = ParPred(w);
  TermId c7 = u.Constant("c7");
  TermId c8 = u.Constant("c8");
  TermId c9 = u.Constant("c9");

  QueryServiceOptions options;
  options.num_threads = 8;
  QueryService service(w.program, w.db, options);
  QueryRequest exemplar;
  exemplar.query = w.query;
  auto prepared = service.Prepare(exemplar);
  ASSERT_TRUE(prepared.ok());
  QueryService::FormHandle handle = *prepared;
  const std::vector<TermId> seed = {u.Constant("c0")};
  ASSERT_EQ(service.Answer(handle, seed).tuples.size(), 7u);

  constexpr int kWrites = 48;  // even: the final state is the 7-row one
  std::atomic<uint64_t> writes_started{0};
  std::atomic<uint64_t> writes_completed{0};
  std::atomic<bool> writer_done{false};
  std::atomic<int> violations{0};

  std::thread writer([&] {
    for (int i = 0; i < kWrites; ++i) {
      const bool present = i % 2 == 1;  // write #i toggles to !present
      WriteBatch batch;
      if (present) {
        batch.Retract(par, {c7, c8});
        batch.Retract(par, {c8, c9});
      } else {
        batch.Insert(par, {c7, c8});
        batch.Insert(par, {c8, c9});
      }
      writes_started.fetch_add(1, std::memory_order_seq_cst);
      auto applied = service.ApplyWrites(batch);
      if (!applied.ok() || applied->relations_mutated != 1) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
      writes_completed.fetch_add(1, std::memory_order_seq_cst);
      // Pace the writer so the readers genuinely interleave with the
      // toggles instead of racing past a writer that finished first.
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    writer_done.store(true, std::memory_order_seq_cst);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&] {
      while (!writer_done.load(std::memory_order_seq_cst)) {
        const uint64_t completed = writes_completed.load();
        QueryAnswer answer = service.Answer(handle, seed);
        const uint64_t started = writes_started.load();
        if (!answer.status.ok()) {
          violations.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const size_t rows = answer.tuples.size();
        if (rows != 7 && rows != 9) {
          // A torn batch: one edge of the extension without the other.
          violations.fetch_add(1, std::memory_order_relaxed);
        } else if (completed == started &&
                   rows != (completed % 2 == 1 ? 9u : 7u)) {
          // No write started after the `completed` writes this read began
          // under, so the answer must be exactly that state's.
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(violations.load(), 0);

  // Post-write reads are never stale: the writer has fully finished, so
  // every read — evaluated or cache-served — must see the final state.
  for (int i = 0; i < 32; ++i) {
    QueryAnswer final_read = service.Answer(handle, seed);
    ASSERT_TRUE(final_read.status.ok());
    EXPECT_EQ(final_read.tuples.size(), 7u) << "stale post-write read";
  }

  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.writes_applied, static_cast<size_t>(kWrites));
  // No drain happened — there is nothing left to drain. Every batch
  // net-changed the EDB, so each published exactly one version on top of
  // the constructor's version 1, and each recorded one publish-latency
  // sample (the histogram that replaced the retired drain-wait one).
  EXPECT_EQ(stats.write_publish.count, static_cast<uint64_t>(kWrites));
  EXPECT_EQ(stats.versions_published, static_cast<size_t>(kWrites) + 1);
  // The single writer never queued behind itself, and nobody is waiting
  // for a commit ticket now.
  EXPECT_EQ(stats.writes_queued, 0u);
}

TEST(WriteSeamTest, ClearThenIdenticalReinsertKeepsTheCacheWarm) {
  // Service-level face of the storage regression: an APPLY that clears a
  // relation and reinserts exactly its prior content publishes no version,
  // so warm cached answers keep serving.
  Workload w = MakeAncestorChain(8);
  Universe& u = *w.universe;
  PredId par = ParPred(w);

  QueryServiceOptions options;
  options.num_threads = 2;
  QueryService service(w.program, w.db, options);
  QueryRequest exemplar;
  exemplar.query = w.query;
  auto handle = service.Prepare(exemplar);
  ASSERT_TRUE(handle.ok());
  std::vector<TermId> seed = {u.Constant("c0")};
  ASSERT_TRUE(service.Answer(*handle, seed).status.ok());  // fill

  // Mirror the live tuples, then clear-and-reinsert them in one batch.
  const Relation* rel = w.db.Find(par);
  ASSERT_NE(rel, nullptr);
  WriteBatch rewrite;
  rewrite.Clear(par);
  for (size_t row = 0; row < rel->size(); ++row) {
    rewrite.Insert(par, {rel->Row(row)[0], rel->Row(row)[1]});
  }
  auto applied = service.ApplyWrites(rewrite);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied->cleared, 1u);
  EXPECT_EQ(applied->relations_mutated, 0u);

  QueryAnswer warm = service.Answer(*handle, seed);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.tuples.size(), 7u);
  // Net-zero: nothing published beyond the constructor's version 1.
  EXPECT_EQ(service.stats().versions_published, 1u);
}

TEST(WriteSeamTest, PublishLatencyIsIndependentOfInflightFixpoints) {
  // The MVCC acceptance bar: a writer's publish must not wait for the
  // longest-running in-flight evaluation (the old drain did exactly
  // that). Pin a slow cold fixpoint in the pool, commit mid-flight, and
  // require the publish to return well before the evaluation does. Chain
  // sizes escalate until the evaluation is slow enough to measure
  // un-flakily; any one passing size proves the property.
  for (const int chain : {256, 512, 1024}) {
    Workload w = MakeAncestorChain(chain);
    Universe& u = *w.universe;
    PredId par = ParPred(w);

    QueryServiceOptions options;
    options.num_threads = 2;
    options.cache_bytes = 0;  // every read is a full cold fixpoint
    QueryService service(w.program, w.db, options);
    QueryRequest exemplar;
    exemplar.query = w.query;
    auto handle = service.Prepare(exemplar);
    ASSERT_TRUE(handle.ok());
    const std::vector<TermId> seed = {u.Constant("c0")};

    // Calibrate: one cold evaluation, timed.
    const auto cal_start = std::chrono::steady_clock::now();
    ASSERT_EQ(service.Answer(*handle, seed).tuples.size(),
              static_cast<size_t>(chain) - 1);
    const auto eval_cost = std::chrono::steady_clock::now() - cal_start;
    if (eval_cost < std::chrono::milliseconds(4)) continue;  // too fast

    // Launch the slow evaluation, give it a moment to enter the fixpoint,
    // then commit while it runs.
    std::future<QueryAnswer> slow = service.Submit(*handle, seed);
    std::this_thread::sleep_for(eval_cost / 4);
    WriteBatch batch;
    batch.Insert(par, {u.Constant("mvcc_x"), u.Constant("mvcc_y")});
    const auto write_start = std::chrono::steady_clock::now();
    auto applied = service.ApplyWrites(batch);
    const auto publish_cost = std::chrono::steady_clock::now() - write_start;
    ASSERT_TRUE(applied.ok());

    QueryAnswer answer = slow.get();
    ASSERT_TRUE(answer.status.ok());
    EXPECT_EQ(answer.tuples.size(), static_cast<size_t>(chain) - 1);
    // The old drain made the write wait out the whole evaluation; the
    // publish must come back in a fraction of one.
    EXPECT_LT(publish_cost, eval_cost / 2)
        << "publish stalled behind an in-flight fixpoint (chain " << chain
        << ")";
    return;  // one measurable size suffices
  }
  GTEST_SKIP() << "evaluations too fast to time on this machine";
}

}  // namespace
}  // namespace magic
