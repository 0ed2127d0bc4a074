#include "storage/relation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "storage/database.h"
#include "util/hash.h"

namespace magic {

/// White-box access to the dedup table and the chunks, for layout checks
/// the public API cannot observe (capacity, occupancy, where a probe chain
/// sits, which chunks a clone shares, where an index row list starts).
struct RelationTestPeer {
  using Blocks = std::vector<const void*>;

  static size_t DataChunkRows() { return size_t{1} << Relation::kRowChunkShift; }
  static size_t ArenaChunkUnits() {
    return ChunkedArray<uint32_t>::chunk_units();
  }
  static Blocks DataBlocks(const Relation& rel) { return BlocksOf(rel.data_); }
  static Blocks SlotBlocks(const Relation& rel) { return BlocksOf(rel.slots_); }
  static Blocks EntryBlocks(const Relation& rel, uint64_t mask) {
    MutexLock lock(rel.index_mutex_);
    return BlocksOf(rel.indices_.at(mask)->entries);
  }
  static Blocks ArenaBlocks(const Relation& rel, uint64_t mask) {
    MutexLock lock(rel.index_mutex_);
    return BlocksOf(rel.indices_.at(mask)->arena);
  }
  /// {first arena unit, capacity} of `key`'s row list in `mask`'s index.
  static std::pair<size_t, uint32_t> List(const Relation& rel, uint64_t mask,
                                          const std::vector<TermId>& key) {
    MutexLock lock(rel.index_mutex_);
    const Relation::Index::Entry* e =
        rel.indices_.at(mask)->Find(HashRange(key.begin(), key.end()));
    return e == nullptr ? std::pair<size_t, uint32_t>{0, 0}
                        : std::pair<size_t, uint32_t>{e->begin, e->capacity};
  }

  /// The fingerprint `key` has in an index.
  static uint32_t Fingerprint(const std::vector<TermId>& key) {
    return Relation::Index::Fingerprint(HashRange(key.begin(), key.end()));
  }

  /// One row list of an index: where it sits, and its rows.
  struct ListView {
    size_t begin = 0;
    uint32_t capacity = 0;
    std::vector<uint32_t> rows;
  };
  /// Every row list of `mask`'s index, in table order.
  static std::vector<ListView> Lists(const Relation& rel, uint64_t mask) {
    MutexLock lock(rel.index_mutex_);
    const Relation::Index& index = *rel.indices_.at(mask);
    std::vector<ListView> lists;
    for (size_t slot = 0; slot < index.entries.size(); ++slot) {
      const Relation::Index::Entry& e = index.entries[slot];
      if (e.capacity == 0) continue;
      const uint32_t* rows = index.arena.At(e.begin);
      lists.push_back({e.begin, e.capacity, {rows, rows + e.size}});
    }
    return lists;
  }
  /// Units `mask`'s index arena has handed out, holes included.
  static size_t ArenaUnits(const Relation& rel, uint64_t mask) {
    MutexLock lock(rel.index_mutex_);
    return rel.indices_.at(mask)->arena.size();
  }

  static size_t Capacity(const Relation& rel) { return rel.slots_.size(); }
  static size_t Occupied(const Relation& rel) {
    size_t occupied = 0;
    for (size_t slot = 0; slot < rel.slots_.size(); ++slot) {
      occupied += rel.slots_[slot] != 0;
    }
    return occupied;
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

 private:
  /// The block at each chunk position (null inside an oversized run).
  template <typename Array>
  static Blocks BlocksOf(const Array& array) {
    return Blocks(array.blocks_.begin(), array.blocks_.end());
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

/// Every row of `rel`, flattened in row order.
std::vector<TermId> FlatRows(const Relation& rel) {
  std::vector<TermId> rows;
  rows.reserve(rel.size() * rel.arity());
  for (size_t r = 0; r < rel.size(); ++r) {
    rows.insert(rows.end(), rel.Row(r).begin(), rel.Row(r).end());
  }
  return rows;
}

/// A clone no longer mutated: its set model, and its rows and per-first-
/// column row counts as they were when it was frozen (then checked
/// against the model in full).
struct Frozen {
  std::unique_ptr<Relation> rel;
  std::set<Tuple> model;
  std::vector<TermId> rows;
  std::map<TermId, size_t> first_column;
};

/// Cheap per-op check of a frozen clone: rows unchanged in place (so the
/// set is unchanged), `touched` findable exactly when its model holds it,
/// and the mask-1 probe for `touched`'s first column as large as before.
void CheckFrozen(const Frozen& f, const Tuple& touched) {
  const Relation& rel = *f.rel;
  ASSERT_EQ(rel.size(), f.model.size());
  // Plain loops, one assertion each: this runs after every op.
  const uint32_t arity = rel.arity();
  size_t changed = 0;
  while (changed < rel.size() &&
         std::equal(rel.Row(changed).begin(), rel.Row(changed).end(),
                    f.rows.begin() + static_cast<long>(changed * arity))) {
    ++changed;
  }
  ASSERT_EQ(changed, rel.size()) << "a frozen clone's row changed";
  ASSERT_EQ(rel.FindRow(touched).has_value(), f.model.count(touched) == 1);
  const TermId key = touched[0];
  size_t found = 0;
  size_t foreign = 0;
  Relation::Cursor c = rel.OpenProbe(0b1, {&key, 1}, 0, rel.size());
  for (uint32_t r = c.Next(); r != Relation::Cursor::kDone; r = c.Next()) {
    foreign += rel.Row(r)[0] != key;
    ++found;
  }
  ASSERT_EQ(foreign, 0u);
  const auto it = f.first_column.find(key);
  ASSERT_EQ(found, it == f.first_column.end() ? 0 : it->second);
}

/// A seeded history that grows one relation into its third data chunk,
/// through dedup-table doublings, with a chain of clones: at random points
/// (and just before each chunk boundary and table doubling) the newest
/// relation is frozen and a clone of it becomes the newest, which alone is
/// mutated from then on. The last phase churns inserts and retracts —
/// many of whose swap-with-last moves a row from the last chunk into an
/// earlier one — and checks every frozen clone after every op.
void RunChunkedHistory(uint32_t arity, uint64_t seed) {
  std::mt19937_64 rng(seed);
  const size_t chunk_rows = RelationTestPeer::DataChunkRows();
  const size_t target = 2 * chunk_rows + chunk_rows / 8;
  const TermId domain = arity == 1 ? static_cast<TermId>(4 * target)
                        : arity == 2 ? 256
                                     : 48;
  auto random_tuple = [&] {
    Tuple t(arity);
    for (TermId& id : t) id = static_cast<TermId>(rng() % domain);
    return t;
  };
  const uint64_t masks = (uint64_t{1} << arity) - 1;
  Modeled newest{std::make_unique<Relation>(arity), {}};
  std::vector<Frozen> frozen;
  size_t cross_chunk_moves = 0;
  size_t grows_while_shared = 0;
  // Milestones just short of a data chunk boundary or a table doubling, so
  // the append or the doubling lands on chunks a frozen clone shares.
  std::set<size_t> milestones = {chunk_rows - 3, 2 * chunk_rows - 3};
  for (size_t slots = 1024; slots * 3 / 4 < target; slots *= 2) {
    milestones.insert(slots * 3 / 4 - 2);
  }

  auto freeze = [&] {
    // The rows a frozen clone keeps are checked against its model here;
    // FindRow(row) == row also proves them distinct.
    const Relation& rel = *newest.rel;
    ASSERT_EQ(rel.size(), newest.model.size());
    for (size_t r = 0; r < rel.size(); ++r) {
      const Tuple t(rel.Row(r).begin(), rel.Row(r).end());
      ASSERT_EQ(newest.model.count(t), 1u) << "row " << r;
      ASSERT_EQ(rel.FindRow(t), r);
    }
    auto clone = std::make_unique<Relation>(*newest.rel);
    std::map<TermId, size_t> first_column;
    for (const Tuple& t : newest.model) ++first_column[t[0]];
    frozen.push_back({std::move(newest.rel), newest.model, FlatRows(*clone),
                      std::move(first_column)});
    newest.rel = std::move(clone);
    // Dropping the oldest frees only chunks no later clone shares.
    if (frozen.size() > 3) frozen.erase(frozen.begin());
  };
  auto retract_row = [&](size_t r) {
    Relation& rel = *newest.rel;
    const Tuple t(rel.Row(r).begin(), rel.Row(r).end());
    const size_t last = rel.size() - 1;
    if (r / chunk_rows != last / chunk_rows) ++cross_chunk_moves;
    ASSERT_TRUE(rel.Retract(t));
    ASSERT_EQ(newest.model.erase(t), 1u);
  };
  // One op on the newest relation, picked by the per-mille thresholds
  // (insert, then retract a stored row, then retract a random tuple, then
  // a windowed probe, FindRow otherwise); returns the tuple it touched.
  struct Mix {
    unsigned insert, retract_row, retract_any, probe;
  };
  auto step = [&](const Mix& mix) -> Tuple {
    Relation& rel = *newest.rel;
    const unsigned op = static_cast<unsigned>(rng() % 1000);
    Tuple t = random_tuple();
    if (op < mix.insert || rel.size() == 0) {
      const size_t slots_before = RelationTestPeer::Capacity(rel);
      EXPECT_EQ(rel.Insert(t), newest.model.insert(t).second);
      if (RelationTestPeer::Capacity(rel) != slots_before && !frozen.empty()) {
        ++grows_while_shared;
      }
    } else if (op < mix.retract_row) {
      const size_t r = rng() % rel.size();
      t.assign(rel.Row(r).begin(), rel.Row(r).end());
      retract_row(r);
    } else if (op < mix.retract_any) {
      EXPECT_EQ(rel.Retract(t), newest.model.erase(t) == 1);
    } else if (op < mix.probe) {
      // A window of up to 3000 rows, anywhere, against a scan of it.
      const uint64_t mask = 1 + rng() % masks;
      const Tuple key = KeyOf(t, mask);
      const size_t from = rng() % (rel.size() + 1);
      const size_t to =
          from + rng() % (std::min<size_t>(rel.size() - from, 3000) + 1);
      std::vector<uint32_t> expected;
      for (size_t r = from; r < to; ++r) {
        bool match = true;
        for (uint32_t i = 0, k = 0; i < arity; ++i) {
          if (mask & (uint64_t{1} << i)) match &= rel.Row(r)[i] == key[k++];
        }
        if (match) expected.push_back(static_cast<uint32_t>(r));
      }
      EXPECT_EQ(ProbeBoth(rel, mask, key, from, to), expected);
    } else {
      EXPECT_EQ(rel.FindRow(t).has_value(), newest.model.count(t) == 1);
    }
    return t;
  };

  // Growth: into the third data chunk. Frozen clones are compared in full
  // at every freeze and every 512 steps.
  for (size_t n = 0; newest.rel->size() < target; ++n) {
    if (milestones.erase(newest.rel->size()) > 0 || rng() % 4000 == 0) {
      ASSERT_NO_FATAL_FAILURE(freeze());
    }
    step(Mix{.insert = 940, .retract_row = 970, .retract_any = 980,
             .probe = 995});
    if (::testing::Test::HasFailure()) return;
    if (n % 512 == 0) {
      for (const Frozen& f : frozen) {
        ASSERT_NO_FATAL_FAILURE(CheckFrozen(f, random_tuple()));
      }
    }
  }
  // Churn on the clone chain: every frozen clone checked after every op.
  for (int n = 0; n < 300; ++n) {
    if (n % 75 == 0) {
      ASSERT_NO_FATAL_FAILURE(freeze());
    }
    const Tuple touched = step(Mix{.insert = 450, .retract_row = 750,
                                   .retract_any = 800, .probe = 830});
    if (::testing::Test::HasFailure()) return;
    for (const Frozen& f : frozen) {
      ASSERT_NO_FATAL_FAILURE(CheckFrozen(f, touched)) << "op " << n;
    }
  }
  EXPECT_GE(newest.rel->size(), 2 * chunk_rows);
  EXPECT_GT(cross_chunk_moves, 0u);
  EXPECT_GT(grows_while_shared, 0u);
  // Every mask's index, on the newest and on the clone it came from.
  ASSERT_NO_FATAL_FAILURE(CheckAgainstModel(newest, rng));
  const Frozen& last = frozen.back();
  ASSERT_NO_FATAL_FAILURE(CheckAgainstModel(
      Modeled{std::make_unique<Relation>(*last.rel), last.model}, rng));
}

TEST(RelationModelTest, HistoriesAcrossChunkBoundariesWithCloneChains) {
  for (uint32_t arity = 1; arity <= 3; ++arity) {
    ASSERT_NO_FATAL_FAILURE(RunChunkedHistory(arity, 40 + arity))
        << "arity " << arity;
  }
}

TEST(RelationModelTest, BucketLongerThanAnArenaChunk) {
  // One key owns 9 rows in 10, so its row list outgrows an arena chunk
  // and lives in an oversized block; windows start deep inside it, past
  // the first chunk's worth of list entries.
  const size_t chunk = RelationTestPeer::ArenaChunkUnits();
  const TermId rows = static_cast<TermId>(5 * chunk / 2);
  Relation rel(2);
  for (TermId i = 0; i < rows; ++i) rel.Insert(Tuple{i % 10 == 0 ? 1u : 7u, i});
  auto expect_windows = [&](const Relation& r) {
    const size_t n = r.size();
    for (const auto& [from, to] : std::vector<std::pair<size_t, size_t>>{
             {0, n}, {chunk + chunk / 8, chunk + chunk / 2}, {2 * chunk, n},
             {n - 1, n}, {2 * chunk, 2 * chunk}, {2 * chunk + 1, 2 * chunk + 2}}) {
      std::vector<uint32_t> expected;
      for (size_t row = from; row < to; ++row) {
        if (r.Row(row)[0] == 7u) expected.push_back(static_cast<uint32_t>(row));
      }
      EXPECT_EQ(ProbeBoth(r, 0b01, Tuple{7}, from, to), expected)
          << "window [" << from << ", " << to << ")";
    }
  };
  expect_windows(rel);
  ASSERT_GT(RelationTestPeer::List(rel, 0b01, Tuple{7}).second, chunk);

  // A clone appending to the same list privatizes the oversized block;
  // the source's list is untouched.
  Relation clone(rel);
  for (TermId i = rows; i < rows + 100; ++i) clone.Insert(Tuple{7, i});
  clone.RebuildIndexes();
  expect_windows(clone);
  expect_windows(rel);
  std::vector<uint32_t> in_source;
  rel.Probe(0b01, Tuple{7}, 0, rel.size(), &in_source);
  std::vector<uint32_t> in_clone;
  clone.Probe(0b01, Tuple{7}, 0, clone.size(), &in_clone);
  EXPECT_EQ(in_clone.size(), in_source.size() + 100);
}

TEST(RelationModelTest, ListStartingAtAnArenaChunksLastUnit) {
  // With the index built over the first row, every later row is appended
  // past the watermark, so each new key's one-row list lands at the
  // arena's tail: key i's list starts at unit i, so key chunk - 1's list
  // sits in the first chunk's last unit and cannot grow in place. Growing
  // it moves it to the next chunk.
  const size_t chunk = RelationTestPeer::ArenaChunkUnits();
  const TermId last_key = static_cast<TermId>(chunk - 1);
  Relation rel(2);
  rel.Insert(Tuple{0, 0});
  std::vector<uint32_t> rows;
  rel.Probe(0b01, Tuple{0}, 0, rel.size(), &rows);  // watermark 1
  for (TermId k = 1; k <= last_key; ++k) rel.Insert(Tuple{k, 0});
  rel.RebuildIndexes();
  ASSERT_EQ(RelationTestPeer::List(rel, 0b01, Tuple{last_key}).first,
            chunk - 1);

  Relation clone(rel);  // the list's chunk is shared from here on
  for (TermId v = 1; v <= 5; ++v) clone.Insert(Tuple{last_key, v});
  clone.Insert(Tuple{last_key - 1, 1});
  clone.RebuildIndexes();
  EXPECT_EQ(RelationTestPeer::List(clone, 0b01, Tuple{last_key}).first, chunk);
  for (const auto& [from, to] : std::vector<std::pair<size_t, size_t>>{
           {0, clone.size()}, {chunk - 1, clone.size()}, {chunk + 2, chunk + 4},
           {clone.size() - 1, clone.size()}}) {
    std::vector<uint32_t> expected;
    for (size_t row = from; row < to; ++row) {
      if (clone.Row(row)[0] == last_key) {
        expected.push_back(static_cast<uint32_t>(row));
      }
    }
    EXPECT_EQ(ProbeBoth(clone, 0b01, Tuple{last_key}, from, to), expected)
        << "window [" << from << ", " << to << ")";
  }
  EXPECT_EQ(ProbeBoth(clone, 0b01, Tuple{last_key - 1}, 0, clone.size()).size(),
            2u);
  // The source still has one row per key, its last list where it was.
  EXPECT_EQ(ProbeBoth(rel, 0b01, Tuple{last_key}, 0, rel.size()),
            std::vector<uint32_t>{last_key});
  EXPECT_EQ(RelationTestPeer::List(rel, 0b01, Tuple{last_key}).first,
            chunk - 1);
}

/// Checks the layout of `mask`'s built index over `rel`: every list
/// ascends, lies in one chunk (or starts an oversized block of its own),
/// and has room for its rows. When `packed`, as a build from scratch must
/// be, every list's capacity is exactly its size, and the lists tile the
/// arena: a unit no list holds is a run's skip to a fresh chunk or an
/// oversized block's unused tail, so the arena has no hole a list moved
/// out of.
void CheckListLayout(const Relation& rel, uint64_t mask, bool packed) {
  const size_t chunk = RelationTestPeer::ArenaChunkUnits();
  std::vector<RelationTestPeer::ListView> lists =
      RelationTestPeer::Lists(rel, mask);
  size_t listed = 0;
  for (const RelationTestPeer::ListView& list : lists) {
    ASSERT_FALSE(list.rows.empty());
    ASSERT_TRUE(std::is_sorted(list.rows.begin(), list.rows.end()));
    ASSERT_EQ(std::adjacent_find(list.rows.begin(), list.rows.end()),
              list.rows.end());
    ASSERT_LT(list.rows.back(), rel.size());
    ASSERT_LE(list.rows.size(), list.capacity);
    if (list.capacity > chunk) {
      ASSERT_EQ(list.begin % chunk, 0u) << "oversized list off a chunk start";
    } else {
      ASSERT_EQ(list.begin / chunk, (list.begin + list.capacity - 1) / chunk)
          << "list at " << list.begin << " straddles a chunk";
    }
    listed += list.rows.size();
    if (!packed) continue;
    ASSERT_EQ(list.capacity, list.rows.size());
  }
  ASSERT_EQ(listed, rel.size());
  if (!packed) return;
  std::sort(lists.begin(), lists.end(),
            [](const auto& a, const auto& b) { return a.begin < b.begin; });
  size_t end = 0;  // first unit past the lists so far
  for (const RelationTestPeer::ListView& list : lists) {
    ASSERT_GE(list.begin, end) << "lists overlap";
    if (list.begin != end) {
      ASSERT_EQ(list.begin % chunk, 0u)
          << "hole of " << list.begin - end << " units before " << list.begin;
    }
    end = list.begin + list.capacity;
  }
  ASSERT_LE(RelationTestPeer::ArenaUnits(rel, mask), (end + chunk - 1) /
                                                         chunk * chunk);
}

/// Probe windows of `mask` on `rel` against the set model: the full-range
/// probe of the first key and of 200 random keys selects exactly the
/// model's tuples with that key, and 64 random windows return the
/// matching rows a scan finds there.
void CheckWindowsAgainstModel(const Relation& rel, const std::set<Tuple>& model,
                              uint64_t mask, std::mt19937_64& rng) {
  std::map<Tuple, std::set<Tuple>> by_key;
  for (const Tuple& t : model) by_key[KeyOf(t, mask)].insert(t);
  std::vector<const Tuple*> keys;
  for (const auto& [key, tuples] : by_key) keys.push_back(&key);
  auto random_key = [&] { return *keys[rng() % keys.size()]; };
  for (int i = 0; i <= 200; ++i) {
    const Tuple key = i == 0 ? by_key.begin()->first : random_key();
    std::set<Tuple> got;
    for (uint32_t r : ProbeBoth(rel, mask, key, 0, rel.size())) {
      got.emplace(rel.Row(r).begin(), rel.Row(r).end());
    }
    ASSERT_EQ(got, by_key.at(key));
  }
  for (int i = 0; i < 64; ++i) {
    const Tuple key = random_key();
    const size_t from = rng() % (rel.size() + 1);
    const size_t to = from + rng() % (rel.size() - from + 1);
    std::vector<uint32_t> expected;
    for (size_t r = from; r < to; ++r) {
      size_t k = 0;
      bool match = true;
      for (uint32_t col = 0; col < rel.arity(); ++col) {
        if (mask & (uint64_t{1} << col)) match &= rel.Row(r)[col] == key[k++];
      }
      if (match) expected.push_back(static_cast<uint32_t>(r));
    }
    ASSERT_EQ(ProbeBoth(rel, mask, key, from, to), expected)
        << "window [" << from << ", " << to << ")";
  }
}

TEST(RelationModelTest, BuildsFromScratchArePackedAndMatchTheModel) {
  // Skewed first columns: key 7 owns more rows than an arena chunk holds
  // (an oversized list), a few keys own hundreds, the rest a handful.
  const size_t chunk = RelationTestPeer::ArenaChunkUnits();
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    std::mt19937_64 rng(seed);
    Relation rel(2);
    std::set<Tuple> model;
    for (TermId i = 0; model.size() < chunk + chunk / 2 + 20'000; ++i) {
      const unsigned pick = static_cast<unsigned>(rng() % 100);
      const TermId key = pick < 55   ? 7
                         : pick < 65 ? static_cast<TermId>(rng() % 16)
                                     : static_cast<TermId>(rng() % 4000);
      const Tuple t{key, static_cast<TermId>(rng() % 50'000)};
      ASSERT_EQ(rel.Insert(t), model.insert(t).second);
    }
    // First probes build both masks from scratch.
    for (uint64_t mask : {0b01u, 0b10u}) {
      ASSERT_NO_FATAL_FAILURE(CheckWindowsAgainstModel(rel, model, mask, rng))
          << "seed " << seed << " mask " << mask;
      ASSERT_NO_FATAL_FAILURE(CheckListLayout(rel, mask, /*packed=*/true))
          << "seed " << seed << " mask " << mask;
    }
    ASSERT_GT(RelationTestPeer::List(rel, 0b01, Tuple{7}).second, chunk);

    // Retracts invalidate both indices; the next probe (mask 1) and
    // RebuildIndexes (mask 2) rebuild them from scratch.
    for (int i = 0; i < 3000; ++i) {
      std::span<const TermId> row = rel.Row(rng() % rel.size());
      const Tuple t(row.begin(), row.end());
      ASSERT_TRUE(rel.Retract(t));
      ASSERT_EQ(model.erase(t), 1u);
    }
    for (uint64_t mask : {0b01u, 0b10u}) {
      if (mask == 0b10u) rel.RebuildIndexes();
      ASSERT_NO_FATAL_FAILURE(CheckWindowsAgainstModel(rel, model, mask, rng))
          << "seed " << seed << " mask " << mask << " after retracts";
      ASSERT_NO_FATAL_FAILURE(CheckListLayout(rel, mask, /*packed=*/true))
          << "seed " << seed << " mask " << mask << " after retracts";
    }

    // A clone appends past the watermark, to the oversized list too: its
    // lists may move (leaving holes), the source's stay packed.
    Relation clone(rel);
    std::set<Tuple> clone_model = model;
    for (TermId i = 0; i < 2000; ++i) {
      const Tuple t{i % 3 == 0 ? 7 : static_cast<TermId>(rng() % 4000),
                    50'000 + i};
      ASSERT_TRUE(clone.Insert(t));
      clone_model.insert(t);
    }
    clone.RebuildIndexes();
    for (uint64_t mask : {0b01u, 0b10u}) {
      ASSERT_NO_FATAL_FAILURE(
          CheckWindowsAgainstModel(clone, clone_model, mask, rng))
          << "seed " << seed << " mask " << mask << " clone";
      ASSERT_NO_FATAL_FAILURE(CheckListLayout(clone, mask, /*packed=*/false))
          << "seed " << seed << " mask " << mask << " clone";
      ASSERT_NO_FATAL_FAILURE(CheckWindowsAgainstModel(rel, model, mask, rng))
          << "seed " << seed << " mask " << mask << " source";
      ASSERT_NO_FATAL_FAILURE(CheckListLayout(rel, mask, /*packed=*/true))
          << "seed " << seed << " mask " << mask << " source";
    }
  }
}

TEST(RelationModelTest, KeysWithCollidingFingerprintsProbeApart) {
  // Small consecutive ids do not collide (the multiply-shift mix spreads
  // them evenly), so search seeded random ids until two fingerprints
  // match: the birthday bound puts the first match near 2^16 draws.
  std::mt19937 rng(29);
  std::unordered_map<uint32_t, TermId> seen;
  TermId a = 0;
  TermId b = 0;
  for (int draw = 0; a == b; ++draw) {
    ASSERT_LT(draw, 1 << 22) << "no fingerprint collision found";
    const TermId key = static_cast<TermId>(rng());
    const auto [it, inserted] =
        seen.emplace(RelationTestPeer::Fingerprint(Tuple{key}), key);
    if (!inserted) {
      a = it->second;
      b = key;
    }
  }

  // Both keys interleaved with each other and with other keys' rows.
  Relation rel(2);
  TermId next = 0;
  auto add = [&](Relation& r, size_t per_key) {
    for (size_t i = 0; i < per_key; ++i, ++next) {
      for (TermId key : {a, b, next % 7}) {
        ASSERT_TRUE(r.Insert(Tuple{key, next}));
      }
    }
  };
  // Each key's probe, whole and windowed, against a scan for its rows.
  auto expect_apart = [&](const Relation& r, const char* state) {
    for (TermId key : {a, b}) {
      for (const auto& [from, to] : std::vector<std::pair<size_t, size_t>>{
               {0, r.size()}, {r.size() / 3, r.size()}, {1, r.size() / 2}}) {
        std::vector<uint32_t> expected;
        for (size_t row = from; row < to; ++row) {
          if (r.Row(row)[0] == key) {
            expected.push_back(static_cast<uint32_t>(row));
          }
        }
        EXPECT_EQ(ProbeBoth(r, 0b01, Tuple{key}, from, to), expected)
            << state << ": key " << key << " window [" << from << ", " << to
            << ")";
      }
    }
    // The two keys share one list.
    EXPECT_EQ(RelationTestPeer::List(r, 0b01, Tuple{a}),
              RelationTestPeer::List(r, 0b01, Tuple{b}))
        << state;
  };

  ASSERT_NO_FATAL_FAILURE(add(rel, 40));
  expect_apart(rel, "built from scratch");
  ASSERT_NO_FATAL_FAILURE(add(rel, 25));
  expect_apart(rel, "appended past the watermark");
  Relation clone(rel);
  ASSERT_NO_FATAL_FAILURE(add(clone, 10));
  clone.RebuildIndexes();
  expect_apart(clone, "clone");
  expect_apart(rel, "clone's source");
  ASSERT_TRUE(rel.Retract(Tuple{a, 3}));
  ASSERT_TRUE(rel.Retract(Tuple{b, 50}));
  expect_apart(rel, "rebuilt after retracts");
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

/// Chunk positions where `a` and `b` hold different blocks (a position
/// only one of them has counts too).
size_t Differing(const RelationTestPeer::Blocks& a,
                 const RelationTestPeer::Blocks& b) {
  size_t differing = std::max(a.size(), b.size()) - std::min(a.size(), b.size());
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    differing += a[i] != b[i];
  }
  return differing;
}

/// A relation of `rows` tuples (i % keys, i) with its mask-1 index built.
std::unique_ptr<Relation> MakeIndexed(TermId rows, TermId keys) {
  auto rel = std::make_unique<Relation>(2);
  for (TermId i = 0; i < rows; ++i) rel->Insert(Tuple{i % keys, i});
  std::vector<uint32_t> out;
  rel->Probe(0b01, Tuple{0}, 0, rel->size(), &out);
  return rel;
}

TEST(RelationChunkTest, CloneAndOneInsertShareAllButTheTouchedChunks) {
  // 4-5 rows per key: the built index places each list at exactly its
  // row count, about 49k arena units, so every array spans at least 4
  // chunks.
  const TermId rows =
      static_cast<TermId>(6 * RelationTestPeer::DataChunkRows() + 100);
  std::unique_ptr<Relation> source = MakeIndexed(rows, 10'000);
  using Peer = RelationTestPeer;
  const Peer::Blocks data = Peer::DataBlocks(*source);
  const Peer::Blocks slots = Peer::SlotBlocks(*source);
  const Peer::Blocks entries = Peer::EntryBlocks(*source, 0b01);
  const Peer::Blocks arena = Peer::ArenaBlocks(*source, 0b01);
  for (const Peer::Blocks* blocks : {&data, &slots, &entries, &arena}) {
    ASSERT_GE(blocks->size(), 4u);
  }

  Relation clone(*source);
  EXPECT_EQ(Peer::DataBlocks(clone), data);  // a clone copies no chunk
  EXPECT_EQ(Peer::SlotBlocks(clone), slots);
  EXPECT_EQ(Peer::EntryBlocks(clone, 0b01), entries);
  EXPECT_EQ(Peer::ArenaBlocks(clone, 0b01), arena);

  ASSERT_TRUE(clone.Insert(Tuple{3, 1'000'000}));
  clone.RebuildIndexes();
  // One row, one slot, one index entry, one list: at most the chunk each
  // write landed in, plus a new tail chunk, per array.
  EXPECT_LE(Differing(Peer::DataBlocks(clone), data), 2u);
  EXPECT_LE(Differing(Peer::SlotBlocks(clone), slots), 1u);
  EXPECT_LE(Differing(Peer::EntryBlocks(clone, 0b01), entries), 1u);
  EXPECT_LE(Differing(Peer::ArenaBlocks(clone, 0b01), arena), 2u);
  // The source kept every chunk and every row.
  EXPECT_EQ(Peer::DataBlocks(*source), data);
  EXPECT_EQ(Peer::SlotBlocks(*source), slots);
  EXPECT_EQ(Peer::EntryBlocks(*source, 0b01), entries);
  EXPECT_EQ(Peer::ArenaBlocks(*source, 0b01), arena);
  EXPECT_EQ(source->size(), rows);
  EXPECT_FALSE(source->Contains(Tuple{3, 1'000'000}));
  std::vector<uint32_t> in_source;
  source->Probe(0b01, Tuple{3}, 0, source->size(), &in_source);
  std::vector<uint32_t> in_clone;
  clone.Probe(0b01, Tuple{3}, 0, clone.size(), &in_clone);
  EXPECT_EQ(in_clone.size(), in_source.size() + 1);
}

TEST(RelationChunkTest, InsertBatchOnACloneCopiesOneArenaChunk) {
  // 3-4 rows per key. Built from scratch, every list is full, so each key
  // the batch touches moves its list to the arena's tail: the batch
  // writes one arena chunk, not the chunk of every list it touches.
  using Peer = RelationTestPeer;
  constexpr TermId kKeys = 30'000;
  std::unique_ptr<Relation> source = MakeIndexed(100'000, kKeys);
  const Peer::Blocks arena = Peer::ArenaBlocks(*source, 0b01);
  ASSERT_GE(arena.size(), 6u);

  Relation clone(*source);
  // Eight keys of 3 rows each, listed all over the arena.
  std::vector<TermId> keys;
  for (TermId k = 10'000; k < kKeys; k += 2'500) keys.push_back(k);
  ASSERT_EQ(keys.size(), 8u);
  for (TermId key : keys) ASSERT_TRUE(clone.Insert(Tuple{key, 1'000'000}));
  clone.RebuildIndexes();
  EXPECT_EQ(Differing(Peer::ArenaBlocks(clone, 0b01), arena), 1u);
  EXPECT_EQ(Peer::ArenaBlocks(*source, 0b01), arena);
  for (TermId key : keys) {
    EXPECT_EQ(ProbeBoth(clone, 0b01, Tuple{key}, 0, clone.size()).size(), 4u);
    EXPECT_EQ(ProbeBoth(*source, 0b01, Tuple{key}, 0, source->size()).size(),
              3u);
  }
}

TEST(RelationChunkTest, CloneOutlivesItsSource) {
  // The clone holds its own reference to every chunk, so destroying the
  // source first frees nothing the clone reads (ASan checks the reads).
  std::unique_ptr<Relation> source = MakeIndexed(
      static_cast<TermId>(3 * RelationTestPeer::DataChunkRows()), 500);
  const std::vector<TermId> rows = FlatRows(*source);
  std::vector<uint32_t> probed;
  source->Probe(0b01, Tuple{42}, 0, source->size(), &probed);
  Relation clone(*source);
  source.reset();

  EXPECT_TRUE(FlatRows(clone) == rows);
  for (size_t r = 0; r < clone.size(); r += 97) {
    EXPECT_EQ(clone.FindRow(clone.Row(r)), r);
  }
  EXPECT_EQ(ProbeBoth(clone, 0b01, Tuple{42}, 0, clone.size()), probed);
  // And it stays writable: the chunks it now owns alone are written in
  // place, the rest as usual.
  ASSERT_TRUE(clone.Retract(Tuple{42, 42}));
  ASSERT_TRUE(clone.Insert(Tuple{42, 1'000'000}));
  clone.RebuildIndexes();
  EXPECT_EQ(ProbeBoth(clone, 0b01, Tuple{42}, 0, clone.size()).size(),
            probed.size());
}

TEST(RelationChunkTest, WritingTheSourceAfterACloneLeavesTheClone) {
  // Copying a relation makes the source share its chunks too, so the
  // source's own later writes copy the chunks before writing them.
  std::unique_ptr<Relation> source = MakeIndexed(
      static_cast<TermId>(2 * RelationTestPeer::DataChunkRows() + 7), 300);
  Relation clone(*source);
  const std::vector<TermId> rows = FlatRows(clone);
  const std::vector<uint32_t> probed =
      ProbeBoth(clone, 0b01, Tuple{5}, 0, clone.size());

  ASSERT_TRUE(source->Retract(Tuple{5, 5}));  // last row moves to chunk 0
  ASSERT_TRUE(source->Insert(Tuple{5, 1'000'000}));
  source->RebuildIndexes();

  EXPECT_TRUE(FlatRows(clone) == rows);
  EXPECT_EQ(RelationTestPeer::Occupied(clone), clone.size());
  EXPECT_TRUE(clone.Contains(Tuple{5, 5}));
  EXPECT_FALSE(clone.Contains(Tuple{5, 1'000'000}));
  EXPECT_EQ(ProbeBoth(clone, 0b01, Tuple{5}, 0, clone.size()), probed);
}

TEST(RelationChunkTest, ClearOnACloneLeavesTheSourcesChunks) {
  std::unique_ptr<Relation> source = MakeIndexed(
      static_cast<TermId>(2 * RelationTestPeer::DataChunkRows() + 7), 300);
  using Peer = RelationTestPeer;
  const Peer::Blocks data = Peer::DataBlocks(*source);
  const Peer::Blocks slots = Peer::SlotBlocks(*source);
  const Peer::Blocks arena = Peer::ArenaBlocks(*source, 0b01);
  const std::vector<TermId> rows = FlatRows(*source);
  std::vector<uint32_t> probed;
  source->Probe(0b01, Tuple{5}, 0, source->size(), &probed);

  Relation clone(*source);
  clone.Clear();
  EXPECT_EQ(clone.size(), 0u);
  EXPECT_EQ(Peer::Capacity(clone), Peer::Capacity(*source));
  EXPECT_EQ(Peer::Occupied(clone), 0u);
  ASSERT_TRUE(clone.Insert(Tuple{5, 5}));
  EXPECT_EQ(ProbeBoth(clone, 0b01, Tuple{5}, 0, clone.size()).size(), 1u);

  EXPECT_EQ(Peer::DataBlocks(*source), data);
  EXPECT_EQ(Peer::SlotBlocks(*source), slots);
  EXPECT_EQ(Peer::ArenaBlocks(*source, 0b01), arena);
  EXPECT_TRUE(FlatRows(*source) == rows);
  EXPECT_EQ(Peer::Occupied(*source), source->size());
  EXPECT_EQ(ProbeBoth(*source, 0b01, Tuple{5}, 0, source->size()), probed);
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

TEST(RelationConcurrencyTest, WriterPrivatizesWhileReadersDropTheLastPin) {
  // The MVCC shape: readers pin version N and read it through OpenProbe
  // and Row while the writer clones N into N+1 and writes the clone. The
  // writer unpublishes N before writing, so the last pin on N drops on a
  // reader thread, racing the writer's ownership checks on the chunks
  // N and N+1 share: a chunk the writer finds unshared must not be read
  // by anyone any more (TSan checks the ordering). Version v holds the
  // base rows (i % 64, i) plus (j % 64, kBase + j) for j < v, and every
  // 8th version also retracts and reinserts a row of the first chunk, so
  // the swap-with-last moves a row across chunks.
  constexpr TermId kKeys = 64;
  const TermId base =
      static_cast<TermId>(2 * RelationTestPeer::DataChunkRows() + 500);
  constexpr int kVersions = 120;
  constexpr size_t kReaders = 3;
  auto head_rel = std::make_shared<Relation>(2);
  for (TermId i = 0; i < base; ++i) head_rel->Insert(Tuple{i % kKeys, i});
  head_rel->RebuildIndexes();
  std::vector<uint32_t> warm;
  head_rel->Probe(0b01, Tuple{0}, 0, head_rel->size(), &warm);

  std::mutex head_mutex;
  std::shared_ptr<const Relation> head = head_rel;
  int head_version = 0;
  std::atomic<bool> done{false};
  std::atomic<int> wrong{0};
  std::atomic<int> reads{0};
  auto expected_rows = [&](int version, TermId key) {
    size_t n = base / kKeys + (key < base % kKeys ? 1 : 0);
    for (int j = 0; j < version; ++j) n += static_cast<TermId>(j) % kKeys == key;
    return n;
  };
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (uint64_t n = t; !done.load(std::memory_order_acquire); ++n) {
        std::shared_ptr<const Relation> pin;
        int version = 0;
        {
          std::lock_guard<std::mutex> lock(head_mutex);
          pin = head;
          version = head_version;
        }
        if (pin == nullptr) {
          std::this_thread::yield();
          continue;
        }
        const TermId key = static_cast<TermId>(n * 7 % kKeys);
        size_t found = 0;
        Relation::Cursor c = pin->OpenProbe(0b01, {&key, 1}, 0, pin->size());
        for (uint32_t row = c.Next(); row != Relation::Cursor::kDone;
             row = c.Next()) {
          found += pin->Row(row)[0] == key;
        }
        if (found != expected_rows(version, key) ||
            pin->size() != base + static_cast<size_t>(version)) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
        // `pin` drops here: possibly the last reference to its version.
      }
    });
  }
  for (int v = 0; v < kVersions; ++v) {
    std::shared_ptr<const Relation> pinned;
    {
      std::lock_guard<std::mutex> lock(head_mutex);
      pinned = std::move(head);
      head = nullptr;  // unpublished: only readers' pins hold version v
    }
    auto next = std::make_shared<Relation>(*pinned);
    pinned.reset();
    next->Insert(Tuple{static_cast<TermId>(v) % kKeys,
                       base + static_cast<TermId>(v)});
    if (v % 8 == 0) {
      const Tuple moved = {static_cast<TermId>(v) % kKeys,
                           static_cast<TermId>(v)};
      ASSERT_TRUE(next->Retract(moved));
      ASSERT_TRUE(next->Insert(moved));
    }
    next->RebuildIndexes();
    std::lock_guard<std::mutex> lock(head_mutex);
    head = std::move(next);
    head_version = v + 1;
  }
  while (reads.load(std::memory_order_relaxed) < 200) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(wrong.load(), 0);
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
