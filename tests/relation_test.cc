#include "storage/relation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "storage/database.h"
#include "util/hash.h"

namespace magic {

/// White-box access to the dedup table, for layout checks the public API
/// cannot observe (capacity, occupancy, where a probe chain sits).
struct RelationTestPeer {
  static size_t Capacity(const Relation& rel) { return rel.slots_.size(); }
  static size_t Occupied(const Relation& rel) {
    return static_cast<size_t>(std::count_if(
        rel.slots_.begin(), rel.slots_.end(),
        [](uint32_t id) { return id != 0; }));
  }
  static size_t HomeSlot(const Relation& rel,
                         const std::vector<TermId>& tuple) {
    return rel.HomeSlot(HashRange(tuple.begin(), tuple.end()));
  }
  static size_t SlotOf(const Relation& rel, const std::vector<TermId>& tuple) {
    return rel.FindSlot(tuple, HashRange(tuple.begin(), tuple.end()));
  }
  static size_t BuiltIndexes(const Relation& rel) {
    MutexLock lock(rel.index_mutex_);
    return rel.indices_.size();
  }
};

namespace {

TEST(RelationTest, InsertDeduplicates) {
  Relation rel(2);
  std::vector<TermId> t1 = {1, 2};
  std::vector<TermId> t2 = {1, 3};
  EXPECT_TRUE(rel.Insert(t1));
  EXPECT_FALSE(rel.Insert(t1));
  EXPECT_TRUE(rel.Insert(t2));
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_TRUE(rel.Contains(t1));
  EXPECT_FALSE(rel.Contains(std::vector<TermId>{2, 1}));
}

TEST(RelationTest, RowAccess) {
  Relation rel(3);
  rel.Insert(std::vector<TermId>{7, 8, 9});
  auto row = rel.Row(0);
  EXPECT_EQ(row[0], 7u);
  EXPECT_EQ(row[2], 9u);
}

TEST(RelationTest, ProbeByMask) {
  Relation rel(2);
  rel.Insert(std::vector<TermId>{1, 10});
  rel.Insert(std::vector<TermId>{1, 11});
  rel.Insert(std::vector<TermId>{2, 12});
  std::vector<uint32_t> rows;
  std::vector<TermId> key = {1};
  rel.Probe(0b01, key, 0, rel.size(), &rows);
  EXPECT_EQ(rows.size(), 2u);
  rows.clear();
  key = {12};
  rel.Probe(0b10, key, 0, rel.size(), &rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 2u);
}

TEST(RelationTest, ProbeRespectsRowRanges) {
  Relation rel(2);
  rel.Insert(std::vector<TermId>{1, 10});
  rel.Insert(std::vector<TermId>{1, 11});
  rel.Insert(std::vector<TermId>{1, 12});
  std::vector<uint32_t> rows;
  std::vector<TermId> key = {1};
  rel.Probe(0b01, key, 1, 2, &rows);  // semi-naive delta window
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 1u);
}

TEST(RelationTest, IndexExtendsAfterInserts) {
  Relation rel(2);
  rel.Insert(std::vector<TermId>{1, 10});
  std::vector<uint32_t> rows;
  std::vector<TermId> key = {1};
  rel.Probe(0b01, key, 0, rel.size(), &rows);  // builds the index
  EXPECT_EQ(rows.size(), 1u);
  rel.Insert(std::vector<TermId>{1, 11});
  rows.clear();
  rel.Probe(0b01, key, 0, rel.size(), &rows);  // must see the new row
  EXPECT_EQ(rows.size(), 2u);
}

TEST(RelationTest, RetractRemovesTupleAndCompactsRows) {
  Relation rel(2);
  rel.Insert(std::vector<TermId>{1, 10});
  rel.Insert(std::vector<TermId>{2, 20});
  rel.Insert(std::vector<TermId>{3, 30});

  EXPECT_TRUE(rel.Retract(std::vector<TermId>{2, 20}));
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_FALSE(rel.Contains(std::vector<TermId>{2, 20}));
  EXPECT_TRUE(rel.Contains(std::vector<TermId>{1, 10}));
  EXPECT_TRUE(rel.Contains(std::vector<TermId>{3, 30}));
  // Rows compact: the survivor behind the hole shifted down and the
  // dedup map knows its new id.
  EXPECT_EQ(rel.FindRow(std::vector<TermId>{3, 30}), 1u);
  EXPECT_FALSE(rel.Retract(std::vector<TermId>{2, 20}));  // already gone

  // Re-inserting a retracted tuple works (no dedup ghost).
  EXPECT_TRUE(rel.Insert(std::vector<TermId>{2, 20}));
  EXPECT_EQ(rel.size(), 3u);
}

TEST(RelationTest, RetractResetsAndRebuildsIndexes) {
  Relation rel(2);
  rel.Insert(std::vector<TermId>{1, 10});
  rel.Insert(std::vector<TermId>{1, 11});
  rel.Insert(std::vector<TermId>{2, 12});
  std::vector<uint32_t> rows;
  std::vector<TermId> key = {1};
  rel.Probe(0b01, key, 0, rel.size(), &rows);  // builds the index
  ASSERT_EQ(rows.size(), 2u);

  ASSERT_TRUE(rel.Retract(std::vector<TermId>{1, 10}));
  // Lazy path: the reset index rebuilds on the next probe and must not
  // serve stale row ids.
  rows.clear();
  rel.Probe(0b01, key, 0, rel.size(), &rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rel.Row(rows[0])[1], 11u);

  // Eager path: RebuildIndexes leaves the published snapshot current.
  ASSERT_TRUE(rel.Retract(std::vector<TermId>{2, 12}));
  rel.RebuildIndexes();
  rows.clear();
  rel.Probe(0b01, key, 0, rel.size(), &rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rel.Row(rows[0])[1], 11u);

  // Retracting the last row leaves a usable empty relation.
  ASSERT_TRUE(rel.Retract(std::vector<TermId>{1, 11}));
  rows.clear();
  rel.Probe(0b01, key, 0, rel.size(), &rows);
  EXPECT_TRUE(rows.empty());
}

TEST(RelationTest, RetractZeroAry) {
  Relation rel(0);
  EXPECT_FALSE(rel.Retract(std::vector<TermId>{}));
  ASSERT_TRUE(rel.Insert(std::vector<TermId>{}));
  EXPECT_TRUE(rel.Retract(std::vector<TermId>{}));
  EXPECT_EQ(rel.size(), 0u);
  EXPECT_FALSE(rel.Retract(std::vector<TermId>{}));
}

TEST(RelationTest, FullScanWithZeroMask) {
  Relation rel(1);
  rel.Insert(std::vector<TermId>{5});
  rel.Insert(std::vector<TermId>{6});
  std::vector<uint32_t> rows;
  rel.Probe(Relation::kNoMask, {}, 0, rel.size(), &rows);
  EXPECT_EQ(rows.size(), 2u);
}

TEST(RelationTest, ZeroAryRelation) {
  Relation rel(0);
  EXPECT_EQ(rel.size(), 0u);
  EXPECT_TRUE(rel.Insert(std::vector<TermId>{}));
  EXPECT_FALSE(rel.Insert(std::vector<TermId>{}));
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_TRUE(rel.Contains(std::vector<TermId>{}));
}

TEST(RelationTest, ZeroArySizeFollowsEveryMutation) {
  const std::vector<TermId> empty;
  Relation rel(0);
  ASSERT_TRUE(rel.Insert(empty));
  EXPECT_EQ(rel.size(), 1u);
  Relation clone(rel);
  EXPECT_EQ(clone.size(), 1u);
  ASSERT_TRUE(rel.Retract(empty));
  EXPECT_EQ(rel.size(), 0u);
  EXPECT_EQ(clone.size(), 1u);  // the clone keeps its own count
  clone.Clear();
  EXPECT_EQ(clone.size(), 0u);
  EXPECT_FALSE(clone.Contains(empty));
  ASSERT_TRUE(clone.Insert(empty));
  EXPECT_EQ(clone.size(), 1u);
  EXPECT_EQ(Relation(rel).size(), 0u);  // a clone of an empty relation
}

TEST(RelationTest, InsertReportsNewTuplesOnly) {
  Relation rel(2);
  std::vector<TermId> t1 = {1, 2};
  EXPECT_TRUE(rel.Insert(t1));
  EXPECT_EQ(rel.size(), 1u);

  // Duplicate insert: tuple set unchanged, and the call says so.
  EXPECT_FALSE(rel.Insert(t1));
  EXPECT_EQ(rel.size(), 1u);

  std::vector<TermId> t2 = {1, 3};
  EXPECT_TRUE(rel.Insert(t2));
  EXPECT_EQ(rel.size(), 2u);
}

TEST(RelationTest, ReadsLeaveContentUnchanged) {
  Relation rel(2);
  std::vector<TermId> t1 = {4, 5};
  ASSERT_TRUE(rel.Insert(t1));

  EXPECT_TRUE(rel.Contains(t1));
  EXPECT_EQ(rel.FindRow(t1), 0u);
  std::vector<uint32_t> rows;
  std::vector<TermId> key = {4};
  rel.Probe(/*mask=*/0b01, key, 0, rel.size(), &rows);  // builds an index
  EXPECT_EQ(rows.size(), 1u);
  rel.Probe(0b01, key, 0, rel.size(), &rows);  // indexed fast path

  EXPECT_EQ(rel.size(), 1u);
  EXPECT_EQ(std::vector<TermId>(rel.Row(0).begin(), rel.Row(0).end()), t1);
  EXPECT_FALSE(rel.Insert(t1));  // still present, nothing else added
}

TEST(RelationTest, ClearOnEmptyRelationIsANoOp) {
  // Clearing an already-empty relation changes nothing — not even its
  // built indices, which stay warm. A non-empty clear drops rows and
  // indices; a repeat clear is a no-op again.
  Relation rel(1);
  std::vector<uint32_t> rows;
  std::vector<TermId> t = {7};
  rel.Probe(0b1, t, 0, rel.size(), &rows);  // index built on the empty rel
  ASSERT_EQ(RelationTestPeer::BuiltIndexes(rel), 1u);
  rel.Clear();
  EXPECT_EQ(rel.size(), 0u);
  EXPECT_EQ(RelationTestPeer::BuiltIndexes(rel), 1u);

  ASSERT_TRUE(rel.Insert(t));
  rel.Clear();  // non-empty clear is a real write
  EXPECT_EQ(rel.size(), 0u);
  EXPECT_FALSE(rel.Contains(t));
  EXPECT_EQ(RelationTestPeer::BuiltIndexes(rel), 0u);
  rel.Clear();  // repeat clear: still empty
  EXPECT_EQ(rel.size(), 0u);
  EXPECT_TRUE(rel.Insert(t));  // and still usable
}

TEST(RelationTest, ClearResetsRowsAndIndices) {
  Relation rel(1);
  std::vector<TermId> t = {7};
  ASSERT_TRUE(rel.Insert(t));
  std::vector<uint32_t> rows;
  rel.Probe(0b1, t, 0, rel.size(), &rows);
  ASSERT_EQ(rows.size(), 1u);

  rel.Clear();
  EXPECT_EQ(rel.size(), 0u);
  EXPECT_FALSE(rel.Contains(t));

  // Post-clear state is fully usable: re-insert and probe again (the
  // cleared indices rebuild from scratch).
  EXPECT_TRUE(rel.Insert(t));
  rows.clear();
  rel.Probe(0b1, t, 0, rel.size(), &rows);
  EXPECT_EQ(rows.size(), 1u);
}

TEST(RelationTest, RetractReportsPresentTuplesOnly) {
  Relation rel(2);
  std::vector<TermId> t1 = {1, 2};
  std::vector<TermId> t2 = {3, 4};
  ASSERT_TRUE(rel.Insert(t1));
  ASSERT_TRUE(rel.Insert(t2));

  EXPECT_FALSE(rel.Retract(std::vector<TermId>{9, 9}));  // absent: no-op
  EXPECT_EQ(rel.size(), 2u);

  EXPECT_TRUE(rel.Retract(t1));
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_FALSE(rel.Contains(t1));
  EXPECT_TRUE(rel.Contains(t2));

  EXPECT_FALSE(rel.Retract(t1));  // already gone
  EXPECT_EQ(rel.size(), 1u);
}

TEST(RelationTest, ZeroAryInsertReportsOnlyTheFirst) {
  Relation rel(0);
  std::vector<TermId> empty;
  EXPECT_TRUE(rel.Insert(empty));
  EXPECT_FALSE(rel.Insert(empty));  // at most one 0-ary tuple
  EXPECT_EQ(rel.size(), 1u);
  rel.Clear();
  EXPECT_EQ(rel.size(), 0u);
  EXPECT_FALSE(rel.Contains(empty));
  EXPECT_TRUE(rel.Insert(empty));
}

TEST(RelationTest, RetractLastRowKeepsOthersFindable) {
  Relation rel(2);
  rel.Insert(std::vector<TermId>{1, 10});
  rel.Insert(std::vector<TermId>{2, 20});
  rel.Insert(std::vector<TermId>{3, 30});
  // The last row has nothing to swap in: only its own slot goes.
  ASSERT_TRUE(rel.Retract(std::vector<TermId>{3, 30}));
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel.FindRow(std::vector<TermId>{1, 10}), 0u);
  EXPECT_EQ(rel.FindRow(std::vector<TermId>{2, 20}), 1u);
  EXPECT_FALSE(rel.Contains(std::vector<TermId>{3, 30}));
  EXPECT_EQ(RelationTestPeer::Occupied(rel), 2u);
  ASSERT_TRUE(rel.Retract(std::vector<TermId>{2, 20}));
  ASSERT_TRUE(rel.Retract(std::vector<TermId>{1, 10}));
  EXPECT_EQ(rel.size(), 0u);
  EXPECT_EQ(RelationTestPeer::Occupied(rel), 0u);
  EXPECT_TRUE(rel.Insert(std::vector<TermId>{3, 30}));
  EXPECT_EQ(rel.FindRow(std::vector<TermId>{3, 30}), 0u);
}

TEST(RelationTest, DedupTableGrowsFromSixteenSlotsAtThreeQuartersFull) {
  Relation rel(1);
  EXPECT_EQ(RelationTestPeer::Capacity(rel), 0u);
  size_t capacity = 16;
  for (TermId v = 0; v < 1000; ++v) {
    ASSERT_TRUE(rel.Insert(std::vector<TermId>{v}));
    if ((v + 1) * 4 > capacity * 3) capacity *= 2;
    ASSERT_EQ(RelationTestPeer::Capacity(rel), capacity) << "row " << v;
    ASSERT_EQ(RelationTestPeer::Occupied(rel), rel.size());
  }
  for (TermId v = 0; v < 1000; ++v) {
    ASSERT_EQ(rel.FindRow(std::vector<TermId>{v}), v);
  }
  // Clear keeps the capacity but empties every slot.
  rel.Clear();
  EXPECT_EQ(RelationTestPeer::Capacity(rel), capacity);
  EXPECT_EQ(RelationTestPeer::Occupied(rel), 0u);
  EXPECT_FALSE(rel.Contains(std::vector<TermId>{7}));
}

TEST(RelationTest, RetractInsideProbeChainThatWrapsPastTableEnd) {
  // Three tuples whose home is the table's last slot: they sit in slots
  // 15, 0 and 1, so retracting the first must shift the other two back
  // across the wrap.
  Relation rel(2);
  rel.Insert(std::vector<TermId>{0, 0});  // allocates the 16-slot table
  ASSERT_EQ(RelationTestPeer::Capacity(rel), 16u);
  std::vector<std::vector<TermId>> wrap;
  for (TermId v = 1; wrap.size() < 3; ++v) {
    std::vector<TermId> t = {v, v + 1000};
    if (RelationTestPeer::HomeSlot(rel, t) == 15) wrap.push_back(t);
  }
  rel.Retract(std::vector<TermId>{0, 0});
  for (const auto& t : wrap) ASSERT_TRUE(rel.Insert(t));
  ASSERT_EQ(RelationTestPeer::SlotOf(rel, wrap[0]), 15u);
  ASSERT_EQ(RelationTestPeer::SlotOf(rel, wrap[1]), 0u);
  ASSERT_EQ(RelationTestPeer::SlotOf(rel, wrap[2]), 1u);

  ASSERT_TRUE(rel.Retract(wrap[0]));
  EXPECT_EQ(RelationTestPeer::SlotOf(rel, wrap[1]), 15u);
  EXPECT_EQ(RelationTestPeer::SlotOf(rel, wrap[2]), 0u);
  EXPECT_EQ(RelationTestPeer::Occupied(rel), 2u);
  for (size_t i = 1; i < 3; ++i) {
    std::optional<uint32_t> row = rel.FindRow(wrap[i]);
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ(rel.Row(*row)[0], wrap[i][0]);
  }
  EXPECT_FALSE(rel.Contains(wrap[0]));
  // The chain also survives losing its middle, then its head.
  ASSERT_TRUE(rel.Insert(wrap[0]));
  ASSERT_TRUE(rel.Retract(wrap[2]));
  ASSERT_TRUE(rel.Retract(wrap[1]));
  EXPECT_EQ(RelationTestPeer::SlotOf(rel, wrap[0]), 15u);
  EXPECT_EQ(rel.FindRow(wrap[0]), 0u);
}

TEST(RelationTest, CloneOfRetractInvalidatedIndexRebuilds) {
  Relation rel(2);
  for (TermId i = 0; i < 40; ++i) rel.Insert(std::vector<TermId>{i % 4, i});
  std::vector<uint32_t> rows;
  std::vector<TermId> key = {1};
  rel.Probe(0b01, key, 0, rel.size(), &rows);  // builds the index
  ASSERT_EQ(rows.size(), 10u);
  ASSERT_TRUE(rel.Retract(std::vector<TermId>{1, 1}));  // invalidates it

  Relation clone(rel);
  rows.clear();
  clone.Probe(0b01, key, 0, clone.size(), &rows);
  ASSERT_EQ(rows.size(), 9u);
  for (uint32_t row : rows) EXPECT_EQ(clone.Row(row)[0], 1u);
  // The eager path works on the carried mask too.
  ASSERT_TRUE(clone.Insert(std::vector<TermId>{1, 100}));
  clone.RebuildIndexes();
  rows.clear();
  clone.Probe(0b01, key, 0, clone.size(), &rows);
  EXPECT_EQ(rows.size(), 10u);
  // The source, probed after the clone, still rebuilds on its own.
  rows.clear();
  rel.Probe(0b01, key, 0, rel.size(), &rows);
  EXPECT_EQ(rows.size(), 9u);
}

TEST(RelationTest, CloneCarriesBuiltIndexAndExtendsIt) {
  Relation rel(2);
  for (TermId i = 0; i < 100; ++i) rel.Insert(std::vector<TermId>{i % 10, i});
  std::vector<uint32_t> rows;
  std::vector<TermId> key = {3};
  rel.Probe(0b01, key, 0, rel.size(), &rows);
  ASSERT_EQ(rows.size(), 10u);

  Relation clone(rel);
  ASSERT_TRUE(clone.Insert(std::vector<TermId>{3, 1000}));
  clone.RebuildIndexes();
  rows.clear();
  clone.Probe(0b01, key, 0, clone.size(), &rows);
  ASSERT_EQ(rows.size(), 11u);
  EXPECT_EQ(rows.back(), 100u);
  // A delta window over the appended row alone.
  rows.clear();
  clone.Probe(0b01, key, 100, clone.size(), &rows);
  ASSERT_EQ(rows.size(), 1u);
  // The source never sees the clone's row.
  rows.clear();
  rel.Probe(0b01, key, 0, rel.size(), &rows);
  EXPECT_EQ(rows.size(), 10u);
  EXPECT_FALSE(rel.Contains(std::vector<TermId>{3, 1000}));
}

TEST(RelationDeathTest, RowIdPastMaxRowsAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  static_assert(Relation::kMaxRows - 1 < Relation::Cursor::kDone,
                "the largest row id must not collide with kDone");
  EXPECT_EQ(Relation::CheckedRowId(Relation::kMaxRows - 1), UINT32_MAX - 1);
  EXPECT_DEATH(Relation::CheckedRowId(Relation::kMaxRows), "MAGIC_CHECK");
  EXPECT_DEATH(Relation::CheckedRowId(Relation::kMaxRows + 1), "MAGIC_CHECK");
}

// ---------------------------------------------------------------------------
// Model test: seeded random Insert/Retract/Clear/clone/Probe/OpenProbe/
// FindRow sequences, each relation checked against a std::set of tuples.

using Tuple = std::vector<TermId>;

struct Modeled {
  std::unique_ptr<Relation> rel;
  std::set<Tuple> model;
};

/// Rows Probe returns for (mask, key, window), with OpenProbe checked to
/// yield the same rows in the same order.
std::vector<uint32_t> ProbeBoth(const Relation& rel, uint64_t mask,
                                const Tuple& key, size_t from, size_t to) {
  std::vector<uint32_t> rows;
  rel.Probe(mask, key, from, to, &rows);
  std::vector<uint32_t> cursor_rows;
  Relation::Cursor c = rel.OpenProbe(mask, key, from, to);
  for (uint32_t row = c.Next(); row != Relation::Cursor::kDone;
       row = c.Next()) {
    cursor_rows.push_back(row);
  }
  EXPECT_EQ(rows, cursor_rows);
  return rows;
}

Tuple KeyOf(const Tuple& t, uint64_t mask) {
  Tuple key;
  for (size_t i = 0; i < t.size(); ++i) {
    if (mask & (uint64_t{1} << i)) key.push_back(t[i]);
  }
  return key;
}

/// Full check of one relation against its model: size, every row present
/// and distinct, every model tuple findable, and every mask's full-range
/// probe equal to the model's selection.
void CheckAgainstModel(const Modeled& m, std::mt19937_64& rng) {
  const Relation& rel = *m.rel;
  ASSERT_EQ(rel.size(), m.model.size());
  ASSERT_EQ(RelationTestPeer::Occupied(rel), rel.size());
  std::set<Tuple> rows;
  for (size_t r = 0; r < rel.size(); ++r) {
    Tuple t(rel.Row(r).begin(), rel.Row(r).end());
    ASSERT_TRUE(m.model.count(t)) << "row " << r << " not in model";
    ASSERT_TRUE(rows.insert(t).second) << "duplicate row " << r;
    ASSERT_EQ(rel.FindRow(t), r);
  }
  if (m.model.empty()) return;
  auto it = m.model.begin();
  std::advance(it, static_cast<long>(rng() % m.model.size()));
  for (uint64_t mask = 1; mask < (uint64_t{1} << rel.arity()); ++mask) {
    const Tuple key = KeyOf(*it, mask);
    std::set<Tuple> expected;
    for (const Tuple& t : m.model) {
      if (KeyOf(t, mask) == key) expected.insert(t);
    }
    std::set<Tuple> got;
    for (uint32_t r : ProbeBoth(rel, mask, key, 0, rel.size())) {
      got.emplace(rel.Row(r).begin(), rel.Row(r).end());
    }
    ASSERT_EQ(got, expected) << "mask " << mask;
  }
}

void RunModelHistory(uint32_t arity, uint64_t seed) {
  std::mt19937_64 rng(seed);
  // A small domain keeps duplicates, hits on retract, and shared probe
  // keys frequent; up to 512-576 live tuples walk the table from 16 slots
  // through several doublings.
  const TermId domain = arity == 1 ? 576 : arity == 2 ? 24 : 8;
  auto random_tuple = [&] {
    Tuple t(arity);
    for (TermId& id : t) id = static_cast<TermId>(rng() % domain);
    return t;
  };
  const uint64_t masks = (uint64_t{1} << arity) - 1;  // every non-empty mask
  std::vector<Modeled> live;
  live.push_back({std::make_unique<Relation>(arity), {}});
  for (int step = 0; step < 6000; ++step) {
    Modeled& m = live[rng() % live.size()];
    Relation& rel = *m.rel;
    const unsigned op = static_cast<unsigned>(rng() % 1000);
    if (op < 450) {
      Tuple t = random_tuple();
      ASSERT_EQ(rel.Insert(t), m.model.insert(t).second) << "step " << step;
    } else if (op < 750) {
      Tuple t = random_tuple();
      if (!m.model.empty() && rng() % 2 == 0) {
        auto it = m.model.begin();
        std::advance(it, static_cast<long>(rng() % m.model.size()));
        t = *it;
      }
      ASSERT_EQ(rel.Retract(t), m.model.erase(t) == 1) << "step " << step;
    } else if (op < 753) {
      rel.Clear();
      m.model.clear();
    } else if (op < 765) {
      // Clone isolation: a snapshot of this relation becomes a relation
      // of its own; from here on either may be mutated, and the checks
      // below compare each against its own model only.
      if (live.size() < 6) {
        Modeled copy{std::make_unique<Relation>(rel), m.model};
        live.push_back(std::move(copy));
      } else {
        live.erase(live.begin() + static_cast<long>(rng() % live.size()));
      }
    } else if (op < 900) {
      // Windowed probe against a scan of the same window.
      if (rel.size() == 0) continue;
      const uint64_t mask = 1 + rng() % masks;
      std::span<const TermId> picked = rel.Row(rng() % rel.size());
      const Tuple key = KeyOf(Tuple(picked.begin(), picked.end()), mask);
      const size_t from = rng() % (rel.size() + 1);
      const size_t to = from + rng() % (rel.size() - from + 1);
      std::vector<uint32_t> expected;
      for (size_t r = from; r < to; ++r) {
        if (KeyOf(Tuple(rel.Row(r).begin(), rel.Row(r).end()), mask) == key) {
          expected.push_back(static_cast<uint32_t>(r));
        }
      }
      ASSERT_EQ(ProbeBoth(rel, mask, key, from, to), expected)
          << "step " << step;
    } else if (op < 990) {
      Tuple t = random_tuple();
      std::optional<uint32_t> row = rel.FindRow(t);
      ASSERT_EQ(row.has_value(), m.model.count(t) == 1) << "step " << step;
      if (row) {
        ASSERT_TRUE(std::equal(t.begin(), t.end(), rel.Row(*row).begin()));
      }
    } else {
      rel.RebuildIndexes();
    }
    if (step % 97 == 0) {
      for (const Modeled& each : live) {
        ASSERT_NO_FATAL_FAILURE(CheckAgainstModel(each, rng))
            << "seed " << seed << " step " << step;
      }
    }
  }
  for (const Modeled& each : live) {
    ASSERT_NO_FATAL_FAILURE(CheckAgainstModel(each, rng)) << "seed " << seed;
  }
}

TEST(RelationModelTest, RandomHistoriesMatchSetModel) {
  for (uint32_t arity = 1; arity <= 3; ++arity) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      ASSERT_NO_FATAL_FAILURE(RunModelHistory(arity, seed))
          << "arity " << arity << " seed " << seed;
    }
  }
}

TEST(RelationModelTest, WindowDeepInsideALongSingleKeyBucket) {
  // The self-literal shape: one key owns thousands of rows (interleaved
  // with another key's), and the semi-naive window starts deep inside its
  // list, so both probes must start at the window, not at row 0.
  Relation rel(2);
  for (TermId i = 0; i < 4000; ++i) {
    rel.Insert(Tuple{i % 5 == 0 ? 1u : 7u, i});
  }
  for (const auto& [from, to] : std::vector<std::pair<size_t, size_t>>{
           {3001, 3417}, {3990, 4000}, {2500, 2500}, {0, 1}, {3999, 4000}}) {
    std::vector<uint32_t> expected;
    for (size_t r = from; r < to; ++r) {
      if (rel.Row(r)[0] == 7u) expected.push_back(static_cast<uint32_t>(r));
    }
    EXPECT_EQ(ProbeBoth(rel, 0b01, Tuple{7}, from, to), expected)
        << "window [" << from << ", " << to << ")";
  }
}

TEST(RelationModelTest, MutatingACloneNeverChangesTheSource) {
  Relation source(2);
  for (TermId i = 0; i < 300; ++i) source.Insert(Tuple{i % 17, i});
  std::vector<uint32_t> before;
  source.Probe(0b01, Tuple{5}, 0, source.size(), &before);
  std::vector<Tuple> rows_before;
  rows_before.reserve(source.size());
  for (size_t r = 0; r < source.size(); ++r) {
    rows_before.emplace_back(source.Row(r).begin(), source.Row(r).end());
  }

  Relation clone(source);
  for (TermId i = 0; i < 300; i += 3) clone.Retract(Tuple{i % 17, i});
  for (TermId i = 300; i < 400; ++i) clone.Insert(Tuple{5, i});
  clone.RebuildIndexes();
  std::vector<uint32_t> in_clone;
  clone.Probe(0b01, Tuple{5}, 0, clone.size(), &in_clone);
  EXPECT_GT(in_clone.size(), before.size());

  ASSERT_EQ(source.size(), rows_before.size());
  for (size_t r = 0; r < source.size(); ++r) {
    EXPECT_EQ(Tuple(source.Row(r).begin(), source.Row(r).end()),
              rows_before[r]);
  }
  std::vector<uint32_t> after;
  source.Probe(0b01, Tuple{5}, 0, source.size(), &after);
  EXPECT_EQ(after, before);
  for (const Tuple& row : rows_before) EXPECT_TRUE(source.Contains(row));
  EXPECT_FALSE(source.Contains(Tuple{5, 350}));
}

TEST(RelationConcurrencyTest, CloneWhileReadersOpenProbesOnNewMasks) {
  // Readers open probes on masks the shared source has not built yet, so
  // lazy builds and index-table republishes race the main thread's clones.
  // Every clone must answer each probe exactly as the source does.
  constexpr uint32_t kArity = 4;
  constexpr size_t kReaders = 3;
  auto key_for = [](const Relation& rel, uint64_t mask, size_t row) {
    Tuple key;
    for (uint32_t i = 0; i < kArity; ++i) {
      if (mask & (uint64_t{1} << i)) key.push_back(rel.Row(row)[i]);
    }
    return key;
  };
  auto probe = [](const Relation& rel, uint64_t mask, const Tuple& key) {
    std::vector<uint32_t> rows;
    Relation::Cursor c = rel.OpenProbe(mask, key, 0, rel.size());
    for (uint32_t row = c.Next(); row != Relation::Cursor::kDone;
         row = c.Next()) {
      rows.push_back(row);
    }
    return rows;
  };
  for (int round = 0; round < 4; ++round) {
    Relation source(kArity);
    for (TermId i = 0; i < 2000; ++i) {
      source.Insert(Tuple{i % 7, i % 11, i % 13, i});
    }
    std::atomic<bool> stop{false};
    std::atomic<int> mismatches{0};
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (size_t t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        // Each reader walks all masks from its own starting point, so new
        // masks keep arriving while the clones are taken.
        for (uint64_t n = 0; !stop.load(std::memory_order_relaxed); ++n) {
          const uint64_t mask = 1 + (n * 7 + t * 5) % 15;
          const size_t row = (n * 131 + t) % source.size();
          for (uint32_t r : probe(source, mask, key_for(source, mask, row))) {
            if (key_for(source, mask, r) != key_for(source, mask, row)) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    for (int c = 0; c < 40; ++c) {
      Relation clone(source);
      ASSERT_EQ(clone.size(), source.size());
      for (uint64_t mask = 1; mask < 16; ++mask) {
        const size_t row = (static_cast<size_t>(c) * 37 + mask) % source.size();
        const Tuple key = key_for(source, mask, row);
        ASSERT_EQ(probe(clone, mask, key), probe(source, mask, key))
            << "round " << round << " clone " << c << " mask " << mask;
      }
    }
    stop.store(true);
    for (std::thread& r : readers) r.join();
    EXPECT_EQ(mismatches.load(), 0);
  }
}

TEST(DatabaseTest, AddFactValidates) {
  auto universe = std::make_shared<Universe>();
  Universe& u = *universe;
  PredId par = u.predicates().Declare(u.Sym("par"), 2, PredKind::kBase);
  Database db(universe);
  EXPECT_TRUE(db.AddFact(par, {u.Constant("a"), u.Constant("b")}).ok());
  // Wrong arity.
  EXPECT_FALSE(db.AddFact(par, {u.Constant("a")}).ok());
  // Non-ground.
  EXPECT_FALSE(db.AddFact(par, {u.Constant("a"), u.Variable("X")}).ok());
  EXPECT_EQ(db.FactCount(par), 1u);
  EXPECT_EQ(db.TotalFacts(), 1u);
}

TEST(DatabaseTest, DuplicateFactsAreIdempotent) {
  auto universe = std::make_shared<Universe>();
  Universe& u = *universe;
  PredId par = u.predicates().Declare(u.Sym("par"), 2, PredKind::kBase);
  Database db(universe);
  ASSERT_TRUE(db.AddFact(par, {u.Constant("a"), u.Constant("b")}).ok());
  ASSERT_TRUE(db.AddFact(par, {u.Constant("a"), u.Constant("b")}).ok());
  EXPECT_EQ(db.FactCount(par), 1u);
}

}  // namespace
}  // namespace magic
