// AnswerCache unit tests: exact get/put semantics, version-keyed
// invalidation, byte-budgeted LRU eviction, shard routing, the packed
// payload's encode/decode round trip, disabled mode, and a concurrency
// hammer — 8 threads mixing hits, misses, fills, and version advances
// against one cache. Run under TSan/ASan in CI.

#include "cache/answer_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <thread>
#include <vector>

namespace magic {
namespace {

using Tuples = AnswerCache::Tuples;

std::shared_ptr<const Tuples> MakeTuples(
    std::initializer_list<std::initializer_list<TermId>> rows) {
  std::vector<std::vector<TermId>> tuples;
  for (const auto& row : rows) tuples.emplace_back(row);
  return std::make_shared<const Tuples>(tuples);
}

/// Every tuple of `tuples`, decoded front to back.
std::vector<std::vector<TermId>> Decoded(const Tuples& tuples) {
  std::vector<std::vector<TermId>> rows;
  const size_t visited =
      tuples.Decode(tuples.size(), [&](const std::vector<TermId>& row) {
        rows.push_back(row);
        return true;
      });
  EXPECT_EQ(visited, tuples.size());
  return rows;
}

/// A payload of `rows` two-column tuples, for byte-budget tests.
std::shared_ptr<const Tuples> MakeBulk(size_t rows, TermId value) {
  std::vector<std::vector<TermId>> tuples;
  for (size_t i = 0; i < rows; ++i) {
    tuples.push_back({value, static_cast<TermId>(i)});
  }
  return std::make_shared<const Tuples>(tuples);
}

/// The bytes one entry for (seed, tuples) adds to a cache: measured, not
/// computed, so the budget tests hold whatever the per-entry overhead.
size_t Footprint(std::vector<TermId> seed,
                 std::shared_ptr<const Tuples> tuples) {
  AnswerCacheOptions options;
  options.shards = 1;
  AnswerCache probe(options);
  probe.Put(1, std::move(seed), 1, std::move(tuples));
  return probe.stats().bytes;
}

constexpr uintptr_t kFormA = 0x1000;
constexpr uintptr_t kFormB = 0x2000;

TEST(AnswerCacheTest, ExactKeyGetPutRoundTrip) {
  AnswerCache cache;
  std::vector<TermId> seed = {7};

  EXPECT_EQ(cache.Get(kFormA, seed, /*version=*/1), nullptr);
  cache.Put(kFormA, seed, 1, MakeTuples({{8}, {9}}));

  auto hit = cache.Get(kFormA, seed, 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 2u);
  EXPECT_EQ(Decoded(*hit), (std::vector<std::vector<TermId>>{{8}, {9}}));

  // Every component of the key discriminates.
  EXPECT_EQ(cache.Get(kFormB, seed, 1), nullptr);      // other form
  std::vector<TermId> other_seed = {8};
  EXPECT_EQ(cache.Get(kFormA, other_seed, 1), nullptr);  // other seed
  EXPECT_EQ(cache.Get(kFormA, seed, 2), nullptr);        // other version

  AnswerCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(AnswerCacheTest, VersionAdvanceMakesStaleEntriesUnreachable) {
  AnswerCache cache;
  std::vector<TermId> seed = {1};
  cache.Put(kFormA, seed, /*version=*/10, MakeTuples({{1}}));
  ASSERT_NE(cache.Get(kFormA, seed, 10), nullptr);

  // A database write advanced the version: the old answer must not serve.
  EXPECT_EQ(cache.Get(kFormA, seed, 11), nullptr);
  cache.Put(kFormA, seed, 11, MakeTuples({{1}, {2}}));
  auto fresh = cache.Get(kFormA, seed, 11);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->size(), 2u);
}

TEST(AnswerCacheTest, FirstWriterWinsOnDuplicatePut) {
  AnswerCache cache;
  std::vector<TermId> seed = {3};
  cache.Put(kFormA, seed, 1, MakeTuples({{1}}));
  cache.Put(kFormA, seed, 1, MakeTuples({{2}}));  // concurrent-miss fill race
  auto hit = cache.Get(kFormA, seed, 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(Decoded(*hit), (std::vector<std::vector<TermId>>{{1}}));
  EXPECT_EQ(cache.stats().inserts, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(AnswerCacheTest, ByteBudgetedLruEviction) {
  // One shard so the LRU horizon is global and deterministic; a budget
  // that fits two bulk entries but not three.
  const size_t one = Footprint({1}, MakeBulk(50, 1));
  AnswerCacheOptions options;
  options.shards = 1;
  options.max_bytes = 2 * one + one / 2;
  AnswerCache cache(options);

  std::vector<TermId> s1 = {1}, s2 = {2}, s3 = {3};
  cache.Put(kFormA, s1, 1, MakeBulk(50, 1));
  cache.Put(kFormA, s2, 1, MakeBulk(50, 2));
  ASSERT_EQ(cache.stats().entries, 2u);
  ASSERT_EQ(cache.stats().evictions, 0u);
  ASSERT_LE(cache.stats().bytes, options.max_bytes);

  // Touch s1 so s2 is the least recently used, then overflow the budget.
  ASSERT_NE(cache.Get(kFormA, s1, 1), nullptr);
  cache.Put(kFormA, s3, 1, MakeBulk(50, 3));

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_LE(cache.stats().bytes, options.max_bytes);
  EXPECT_NE(cache.Get(kFormA, s1, 1), nullptr);  // recently used: kept
  EXPECT_EQ(cache.Get(kFormA, s2, 1), nullptr);  // LRU: evicted
  EXPECT_NE(cache.Get(kFormA, s3, 1), nullptr);  // just inserted: kept
}

TEST(AnswerCacheTest, PayloadOutlivesEviction) {
  const size_t one = Footprint({1}, MakeBulk(50, 1));
  AnswerCacheOptions options;
  options.shards = 1;
  options.max_bytes = one + one / 2;  // fits one bulk entry, not two
  AnswerCache cache(options);

  std::vector<TermId> s1 = {1}, s2 = {2};
  cache.Put(kFormA, s1, 1, MakeBulk(50, 1));
  auto pinned = cache.Get(kFormA, s1, 1);
  ASSERT_NE(pinned, nullptr);

  cache.Put(kFormA, s2, 1, MakeBulk(50, 2));  // evicts s1
  EXPECT_EQ(cache.Get(kFormA, s1, 1), nullptr);
  // The shared_ptr returned before the eviction still reads valid data.
  EXPECT_EQ(Decoded(*pinned), Decoded(*MakeBulk(50, 1)));
}

TEST(AnswerCacheTest, BytesAreRealAndEvictionFreesTheVictimsFootprint) {
  // A row costs exactly its encoded ids: the packed array is the whole
  // payload. A bulk row (value, i) steps by (0, +1) from the row before,
  // so each id's zigzag varint is one byte.
  EXPECT_EQ(Footprint({1}, MakeBulk(100, 1)) - Footprint({1}, MakeBulk(50, 1)),
            size_t{50 * 2});

  const std::vector<TermId> s1 = {1}, s2 = {2}, s3 = {3}, s4 = {4};
  const auto t1 = MakeBulk(10, 1), t2 = MakeBulk(50, 2), t3 = MakeBulk(20, 3),
             t4 = MakeBulk(30, 4);
  const size_t f1 = Footprint(s1, t1), f2 = Footprint(s2, t2),
               f3 = Footprint(s3, t3), f4 = Footprint(s4, t4);
  // Room for all four but one byte: the fourth Put evicts exactly the
  // least recently used entry, s1.
  AnswerCacheOptions options;
  options.shards = 1;
  options.max_bytes = f1 + f2 + f3 + f4 - 1;
  AnswerCache cache(options);
  cache.Put(kFormA, s1, 1, t1);
  cache.Put(kFormA, s2, 1, t2);
  cache.Put(kFormA, s3, 1, t3);
  ASSERT_EQ(cache.stats().bytes, f1 + f2 + f3);
  ASSERT_EQ(cache.stats().evictions, 0u);

  cache.Put(kFormA, s4, 1, t4);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().bytes, f2 + f3 + f4);
  EXPECT_EQ(cache.Get(kFormA, s1, 1), nullptr);
  EXPECT_NE(cache.Get(kFormA, s2, 1), nullptr);
}

TEST(AnswerCacheTest, ZeroRowAndZeroArityAnswersRoundTrip) {
  AnswerCache cache;
  const std::vector<TermId> none = {1}, ground = {2};
  // No answers at all, and one empty tuple (a ground goal that holds).
  cache.Put(kFormA, none, 1, MakeTuples({}));
  cache.Put(kFormA, ground, 1, MakeTuples({{}}));

  auto empty = cache.Get(kFormA, none, 1);
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(empty->size(), 0u);

  auto holds = cache.Get(kFormA, ground, 1);
  ASSERT_NE(holds, nullptr);
  EXPECT_EQ(holds->size(), 1u);
  EXPECT_EQ(holds->arity(), 0u);
  EXPECT_EQ(Decoded(*holds), (std::vector<std::vector<TermId>>{{}}));
}

TEST(AnswerCacheTest, OneFormsEntriesAtOneVersionFillEveryShard) {
  // The serving pattern: one form, one version, many seeds. Each of the 16
  // shards' shares fits 64 of these entries, and 512 of them fill half the
  // budget. Routed over every shard, none is evicted; crowded into a few
  // shards, most would be.
  constexpr size_t kShards = 16;
  constexpr TermId kSeeds = 512;
  const size_t one = Footprint({kSeeds}, MakeTuples({{kSeeds}}));
  AnswerCacheOptions options;
  options.shards = kShards;
  options.max_bytes = kShards * 64 * one;
  AnswerCache cache(options);

  for (TermId s = 0; s < kSeeds; ++s) {
    cache.Put(kFormA, {s}, /*version=*/7, MakeTuples({{s}}));
  }
  AnswerCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, kSeeds);
  for (TermId s = 0; s < kSeeds; ++s) {
    auto hit = cache.Get(kFormA, std::vector<TermId>{s}, 7);
    ASSERT_NE(hit, nullptr) << "seed " << s;
    EXPECT_EQ(Decoded(*hit), (std::vector<std::vector<TermId>>{{s}}));
  }
}

TEST(AnswerCacheTest, PackedTuplesRoundTripEveryArityAndId) {
  // Ids at the edges of the 32-bit difference: 0, 1, 2^31 and
  // UINT32_MAX - 1, beside small and random ids. Sorted rows (the order
  // answers arrive in) have later columns that fall from one row to the
  // next; unsorted rows make every column jump either way.
  constexpr TermId kEdges[] = {0, 1, TermId{1} << 31,
                               std::numeric_limits<TermId>::max() - 1};
  std::mt19937 rng(20260419);
  auto id = [&] {
    switch (rng() % 3) {
      case 0: return kEdges[rng() % 4];
      case 1: return static_cast<TermId>(rng() % 300);
      default: return static_cast<TermId>(rng() % 0xFFFFFFFFu);
    }
  };
  for (uint32_t arity = 0; arity <= 4; ++arity) {
    for (size_t rows : {size_t{0}, size_t{1}, size_t{2}, size_t{97}}) {
      for (bool sorted : {false, true}) {
        std::vector<std::vector<TermId>> tuples(rows,
                                                std::vector<TermId>(arity));
        for (std::vector<TermId>& row : tuples) {
          for (TermId& v : row) v = id();
        }
        if (sorted) std::sort(tuples.begin(), tuples.end());
        const Tuples packed(tuples);
        SCOPED_TRACE(testing::Message() << "arity " << arity << ", " << rows
                                        << " rows, sorted " << sorted);
        EXPECT_EQ(packed.size(), rows);
        EXPECT_EQ(packed.arity(), rows == 0 ? 0 : arity);
        EXPECT_EQ(Decoded(packed), tuples);
        // A varint takes 1 to 5 bytes.
        EXPECT_LE(packed.heap_bytes(), rows * arity * 5);
        EXPECT_GE(packed.heap_bytes(), rows * arity);
      }
    }
  }

  // Every edge id after every other, in each column, with the second
  // column falling where the first rises.
  std::vector<std::vector<TermId>> edges;
  for (TermId a : kEdges) {
    for (TermId b : kEdges) edges.push_back({a, b, b, a});
  }
  EXPECT_EQ(Decoded(Tuples(edges)), edges);
}

TEST(AnswerCacheTest, DecodeStopsAtTheLimitOrWhenTheVisitorStops) {
  const std::vector<std::vector<TermId>> tuples = {
      {5, 4000000000u}, {6, 70000}, {900000, 3}, {900001, 4000000001u}};
  const Tuples packed(tuples);

  std::vector<std::vector<TermId>> seen;
  auto keep = [&](const std::vector<TermId>& row) {
    seen.push_back(row);
    return true;
  };
  EXPECT_EQ(packed.Decode(2, keep), 2u);
  EXPECT_EQ(seen, (std::vector<std::vector<TermId>>{tuples[0], tuples[1]}));
  seen.clear();
  EXPECT_EQ(packed.Decode(99, keep), 4u);  // a limit past the end is the end
  EXPECT_EQ(seen, tuples);

  // A visitor that stops on the third tuple: three visited, the stopping
  // one counted.
  seen.clear();
  EXPECT_EQ(packed.Decode(packed.size(),
                          [&](const std::vector<TermId>& row) {
                            seen.push_back(row);
                            return seen.size() < 3;
                          }),
            3u);
  EXPECT_EQ(seen, (std::vector<std::vector<TermId>>{tuples[0], tuples[1],
                                                    tuples[2]}));
}

TEST(AnswerCacheTest, OversizedAnswersAreNotCached) {
  AnswerCacheOptions options;
  options.shards = 1;
  options.max_bytes = 512;
  AnswerCache cache(options);

  std::vector<TermId> seed = {1};
  cache.Put(kFormA, seed, 1, MakeBulk(1000, 1));
  EXPECT_EQ(cache.Get(kFormA, seed, 1), nullptr);
  EXPECT_EQ(cache.stats().rejected_oversize, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(AnswerCacheTest, DisabledCacheNeverHits) {
  AnswerCacheOptions options;
  options.max_bytes = 0;
  AnswerCache cache(options);
  EXPECT_FALSE(cache.enabled());

  std::vector<TermId> seed = {1};
  cache.Put(kFormA, seed, 1, MakeTuples({{1}}));
  EXPECT_EQ(cache.Get(kFormA, seed, 1), nullptr);
  EXPECT_EQ(cache.stats().inserts, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(AnswerCacheTest, EightThreadMixedHitMissInvalidateHammer) {
  // 8 threads hammer one cache with a mix of lookups (hits and misses),
  // fills, and version advances (the shared "database version number" each
  // thread reads before lookup, as QueryService does). Correctness
  // invariants checked per-operation: a hit's payload always matches its
  // key (first tuple encodes the seed and version), i.e. invalidation never
  // serves a stale version's answer. At quiescence the occupancy accounting
  // must balance. TSan/ASan validate the shard locking and LRU splicing.
  AnswerCacheOptions options;
  options.shards = 4;
  options.max_bytes = 64 << 10;  // small enough to force eviction churn
  AnswerCache cache(options);

  std::atomic<uint64_t> db_version{0};
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::atomic<int> wrong_payloads{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t rng = 0x9e3779b97f4a7c15ULL * (t + 1);
      auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
      };
      for (int op = 0; op < kOpsPerThread; ++op) {
        const uint64_t roll = next() % 100;
        const uintptr_t tag = (next() % 2) ? kFormA : kFormB;
        std::vector<TermId> seed = {static_cast<TermId>(next() % 64)};
        const uint64_t version = db_version.load(std::memory_order_acquire);
        if (roll < 70) {  // lookup, fill on miss (the serving pattern)
          auto hit = cache.Get(tag, seed, version);
          if (hit != nullptr) {
            const std::vector<std::vector<TermId>> expected = {
                {seed[0], static_cast<TermId>(version)}};
            if (Decoded(*hit) != expected) {
              wrong_payloads.fetch_add(1, std::memory_order_relaxed);
            }
          } else {
            auto tuples = std::make_shared<const Tuples>(
                std::vector<std::vector<TermId>>{
                    {seed[0], static_cast<TermId>(version)}});
            cache.Put(tag, std::move(seed), version, std::move(tuples));
          }
        } else if (roll < 95) {  // pure lookup
          (void)cache.Get(tag, seed, version);
        } else {  // invalidate: a simulated EDB write
          db_version.fetch_add(1, std::memory_order_acq_rel);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(wrong_payloads.load(), 0);
  AnswerCache::Stats stats = cache.stats();
  // Every Get resolved to exactly one of hit/miss.
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.inserts, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, stats.inserts - stats.evictions);
  EXPECT_LE(stats.bytes, options.max_bytes);
}

}  // namespace
}  // namespace magic
