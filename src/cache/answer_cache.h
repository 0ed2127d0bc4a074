#ifndef MAGIC_CACHE_ANSWER_CACHE_H_
#define MAGIC_CACHE_ANSWER_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ast/term.h"
#include "util/annotated_mutex.h"

namespace magic {

struct AnswerCacheOptions {
  /// Total byte budget across all shards, in real bytes: each entry counts
  /// its packed tuple bytes, its seed, and the fixed size of its entry,
  /// index and LRU nodes and payload control block. An entry whose own
  /// footprint exceeds the per-shard share (512 KiB at the defaults) is not
  /// cached at all. 0 disables the cache (Get always misses, Put is a
  /// no-op).
  size_t max_bytes = size_t{8} << 20;
  /// Shard count, rounded up to a power of two. More shards mean less
  /// lock contention, at the cost of a coarser (per-shard) LRU horizon.
  size_t shards = 16;
};

/// A concurrent, sharded memo of completed query answers, keyed by
/// (form tag, seed tuple, database version).
///
/// The magic transformation specializes evaluation to a query's binding
/// seed, so a serving workload with repeated seeds recomputes identical
/// magic/IDB facts per request; this cache short-circuits that repetition.
/// The caller supplies an opaque `tag` naming the compiled query form (the
/// serving layer uses the PreparedQueryForm address) and the MVCC
/// `version` of the database snapshot the answer was computed against
/// (the serving layer uses VersionChain version numbers). Versions make
/// invalidation free: any net EDB write publishes a new version, so every
/// entry filled against an older snapshot becomes unreachable — no flush,
/// no sweep, no lock on the write path. Stale entries stop being touched
/// and age out of the byte-budgeted LRU.
///
/// Each answer is one packed byte array (Tuples), so a fill is one
/// allocation, an eviction one free, and an entry's footprint (what
/// Stats::bytes and the budget count) is its real, encoded size, computed
/// in O(1). Entries are spread over the shards by a fully mixed hash of
/// (tag, version, seed), so one form's answers at one version use every
/// shard's share.
///
/// Concurrency contract:
///   * Each shard is one mutex (rank kCacheShard, a data-plane leaf:
///     nothing ranked is taken under it) guarding a hash index and an
///     exact LRU list. Get and Put both take it; every operation under it
///     is O(1) apart from hashing and comparing the seed.
///   * Get looks up a borrowed view of the key (no allocation), splices
///     the entry to the front of the LRU list, and copies out one
///     shared_ptr.
///   * Put inserts at the front (first writer wins) and evicts from the
///     tail while the shard is over its byte share. Evicted payloads are
///     released after the shard mutex is dropped, so freeing a large
///     answer never stalls that shard's readers.
///   * Answer payloads are immutable and shared_ptr-owned; a tuple set
///     returned by Get stays valid after the entry is evicted.
class AnswerCache {
 public:
  /// One cached answer: an immutable sequence of `size()` tuples of
  /// `arity()` ids each, in the caller's order, packed into one byte
  /// array. Each id is the zigzag varint of its difference (mod 2^32) from
  /// the id in the same column of the previous tuple (of 0, for the first
  /// tuple). Answers arrive sorted, so ids sit close together and most
  /// take one or two bytes instead of four. The one read is a forward
  /// decode.
  class Tuples {
   public:
    /// Packs `rows`. Every row must have the first row's arity (an empty
    /// `rows` gives arity 0).
    explicit Tuples(const std::vector<std::vector<TermId>>& rows);

    size_t size() const { return rows_; }
    uint32_t arity() const { return arity_; }
    /// Heap bytes of the packed array (exactly its encoded size).
    size_t heap_bytes() const { return bytes_.capacity(); }

    /// Decodes the first min(limit, size()) tuples front to back into one
    /// reused row and calls `visit(const std::vector<TermId>&)` on each,
    /// stopping after the first call that returns false. Returns how many
    /// tuples were visited, the one that stopped the decode included.
    template <typename Visit>
    size_t Decode(size_t limit, Visit&& visit) const {
      const size_t n = std::min(limit, rows_);
      std::vector<TermId> row(arity_, 0);
      TermId* const ids = row.data();
      const uint32_t arity = arity_;
      const uint8_t* p = bytes_.data();
      for (size_t i = 0; i < n; ++i) {
        for (uint32_t c = 0; c < arity; ++c) {
          const uint32_t z = ReadVarint(&p);
          ids[c] += (z >> 1) ^ (0u - (z & 1));  // un-zigzag, add mod 2^32
        }
        if (!visit(std::as_const(row))) return i + 1;
      }
      return n;
    }

   private:
    static uint32_t ReadVarint(const uint8_t** p) {
      uint32_t byte = *(*p)++;
      if (byte < 0x80) return byte;  // the common one-byte id
      uint32_t value = byte & 0x7f;
      for (int shift = 7; byte >= 0x80; shift += 7) {
        byte = *(*p)++;
        value |= (byte & 0x7f) << shift;
      }
      return value;
    }

    uint32_t arity_ = 0;
    size_t rows_ = 0;
    std::vector<uint8_t> bytes_;
  };

  explicit AnswerCache(AnswerCacheOptions options = {});
  ~AnswerCache();

  AnswerCache(const AnswerCache&) = delete;
  AnswerCache& operator=(const AnswerCache&) = delete;

  bool enabled() const { return options_.max_bytes != 0; }

  /// Returns the cached answer for (tag, seed, version), or null on a miss.
  /// Marks the entry most recently used on a hit.
  std::shared_ptr<const Tuples> Get(uintptr_t tag,
                                    std::span<const TermId> seed,
                                    uint64_t version) const;

  /// Caches `tuples` for (tag, seed, version). First writer wins: if the key
  /// is already present (two threads missed and evaluated concurrently)
  /// the existing entry is kept. Oversized answers are dropped.
  void Put(uintptr_t tag, std::vector<TermId> seed, uint64_t version,
           std::shared_ptr<const Tuples> tuples);

  /// Point-in-time counters, summed over the shards. `hits`/`misses` count
  /// Get outcomes; `inserts`/`evictions`/`rejected_oversize` count Put
  /// outcomes; `bytes` and `entries` describe current occupancy.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    uint64_t rejected_oversize = 0;
    size_t entries = 0;
    size_t bytes = 0;
    size_t max_bytes = 0;
  };
  Stats stats() const;

 private:
  /// Borrowed view of a Key: the index's key type, so lookups never
  /// allocate. An indexed view borrows the seed of its LRU node, which
  /// never moves while the entry lives.
  struct KeyView {
    uintptr_t tag = 0;
    uint64_t version = 0;
    std::span<const TermId> seed;
  };
  struct Key {
    uintptr_t tag = 0;
    uint64_t version = 0;
    std::vector<TermId> seed;

    KeyView view() const { return {tag, version, seed}; }
  };
  static size_t HashOf(uintptr_t tag, uint64_t version,
                       std::span<const TermId> seed);
  struct KeyHash {
    size_t operator()(const KeyView& key) const {
      return HashOf(key.tag, key.version, key.seed);
    }
  };
  struct KeyEqual {
    bool operator()(const KeyView& a, const KeyView& b) const {
      return a.tag == b.tag && a.version == b.version &&
             std::equal(a.seed.begin(), a.seed.end(), b.seed.begin(),
                        b.seed.end());
    }
  };

  struct Entry {
    Key key;
    std::shared_ptr<const Tuples> tuples;
    size_t bytes = 0;
  };
  /// Most recently used at the front.
  using Lru = std::list<Entry>;

  struct Shard {
    Mutex mutex{lock_rank::kCacheShard};
    std::unordered_map<KeyView, Lru::iterator, KeyHash, KeyEqual> index
        GUARDED_BY(mutex);
    Lru lru GUARDED_BY(mutex);
    /// This shard's counters and occupancy (`entries` is index.size()).
    Stats stats GUARDED_BY(mutex);
  };

  /// HashOf is fully mixed, so every bit depends on the whole key. Shard
  /// selection uses the upper half so it stays uncorrelated with the
  /// index's bucket index (which consumes the low bits). The shift is half
  /// the operand width, so it is well-defined (and non-degenerate) even
  /// where size_t is 32 bits.
  Shard& ShardFor(size_t hash) const {
    constexpr int kHalf = std::numeric_limits<size_t>::digits / 2;
    return shards_[(hash >> kHalf) & shard_mask_];
  }

  static size_t EntryBytes(const Key& key, const Tuples& tuples);

  AnswerCacheOptions options_;
  size_t shard_mask_ = 0;
  size_t shard_budget_ = 0;  // max_bytes / shard count
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace magic

#endif  // MAGIC_CACHE_ANSWER_CACHE_H_
