#include "cache/answer_cache.h"

#include <bit>
#include <iterator>
#include <utility>

#include "util/check.h"
#include "util/hash.h"

namespace magic {

namespace {

/// MurmurHash3's 64-bit finalizer: every output bit depends on every
/// input bit. HashCombine alone leaves a small seed id in the low bits.
uint64_t Mix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// The zigzag code of `id - prev` read as a signed 32-bit difference, so
/// small steps either way take few varint bytes.
uint32_t ZigzagDelta(TermId prev, TermId id) {
  const uint32_t delta = id - prev;  // mod 2^32
  return (delta << 1) ^ (0u - (delta >> 31));
}

size_t VarintSize(uint32_t value) {
  size_t size = 1;
  for (; value >= 0x80; value >>= 7) ++size;
  return size;
}

uint8_t* WriteVarint(uint32_t value, uint8_t* out) {
  for (; value >= 0x80; value >>= 7) {
    *out++ = static_cast<uint8_t>(value | 0x80);
  }
  *out++ = static_cast<uint8_t>(value);
  return out;
}

}  // namespace

size_t AnswerCache::HashOf(uintptr_t tag, uint64_t version,
                           std::span<const TermId> seed) {
  uint64_t h = HashCombine(static_cast<uint64_t>(tag), version);
  return static_cast<size_t>(Mix64(HashRange(seed.begin(), seed.end(), h)));
}

AnswerCache::Tuples::Tuples(const std::vector<std::vector<TermId>>& rows)
    : arity_(rows.empty() ? 0 : static_cast<uint32_t>(rows[0].size())),
      rows_(rows.size()) {
  // Calls `code(z)` with each id's zigzag delta, in storage order.
  auto each_code = [&](auto&& code) {
    const std::vector<TermId>* prev = nullptr;
    for (const std::vector<TermId>& row : rows) {
      MAGIC_CHECK(row.size() == arity_);
      for (uint32_t c = 0; c < arity_; ++c) {
        code(ZigzagDelta(prev ? (*prev)[c] : 0, row[c]));
      }
      prev = &row;
    }
  };
  // Sized exactly before encoding, so the capacity the budget counts is
  // the encoded size.
  size_t size = 0;
  each_code([&](uint32_t z) { size += VarintSize(z); });
  bytes_.resize(size);
  uint8_t* out = bytes_.data();
  each_code([&](uint32_t z) { out = WriteVarint(z, out); });
}

AnswerCache::AnswerCache(AnswerCacheOptions options)
    : options_(options) {
  size_t shards = std::bit_ceil(options_.shards == 0 ? 1 : options_.shards);
  shard_mask_ = shards - 1;
  shard_budget_ = options_.max_bytes / shards;
  shards_ = std::make_unique<Shard[]>(shards);
}

AnswerCache::~AnswerCache() = default;

std::shared_ptr<const AnswerCache::Tuples> AnswerCache::Get(
    uintptr_t tag, std::span<const TermId> seed, uint64_t version) const {
  if (!enabled()) return nullptr;
  Shard& shard = ShardFor(HashOf(tag, version, seed));
  MutexLock lock(shard.mutex);
  auto it = shard.index.find(KeyView{tag, version, seed});
  if (it == shard.index.end()) {
    ++shard.stats.misses;
    return nullptr;
  }
  ++shard.stats.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->tuples;  // pins the payload past eviction
}

size_t AnswerCache::EntryBytes(const Key& key, const Tuples& tuples) {
  // Real bytes, allocator headers aside: the seed's capacity, the packed
  // tuple bytes, the Entry in its LRU node (16: two links), the index node
  // (56: next link, KeyView, iterator, cached hash) and its bucket slot
  // (8), and the make_shared block around the Tuples (16: vtable pointer,
  // two counts).
  constexpr size_t kNodeOverhead = 16 + 56 + 8;
  constexpr size_t kControlBlock = 16;
  return kNodeOverhead + sizeof(Entry) + kControlBlock + sizeof(Tuples) +
         key.seed.capacity() * sizeof(TermId) + tuples.heap_bytes();
}

void AnswerCache::Put(uintptr_t tag, std::vector<TermId> seed, uint64_t version,
                      std::shared_ptr<const Tuples> tuples) {
  if (!enabled() || tuples == nullptr) return;
  Key key{tag, version, std::move(seed)};
  const size_t bytes = EntryBytes(key, *tuples);
  Shard& shard = ShardFor(HashOf(key.tag, key.version, key.seed));
  // Declared before the lock so the evicted payloads are freed after the
  // shard mutex is released.
  Lru evicted;
  MutexLock lock(shard.mutex);
  if (bytes > shard_budget_) {
    ++shard.stats.rejected_oversize;
    return;
  }
  if (shard.index.contains(key.view())) {
    return;  // first writer wins; concurrent miss-fill race
  }
  Entry& entry =
      shard.lru.emplace_front(Entry{std::move(key), std::move(tuples), bytes});
  shard.index.emplace(entry.key.view(), shard.lru.begin());
  shard.stats.bytes += bytes;
  ++shard.stats.inserts;

  // Byte-budgeted LRU: evict from the tail until back under the shard's
  // share. An entry never exceeds the share alone, so the one just
  // inserted at the front is never a victim.
  while (shard.stats.bytes > shard_budget_) {
    Entry& victim = shard.lru.back();
    shard.index.erase(victim.key.view());
    shard.stats.bytes -= victim.bytes;
    ++shard.stats.evictions;
    evicted.splice(evicted.begin(), shard.lru, std::prev(shard.lru.end()));
  }
}

AnswerCache::Stats AnswerCache::stats() const {
  Stats total;
  total.max_bytes = options_.max_bytes;
  for (size_t i = 0; i <= shard_mask_; ++i) {
    Shard& shard = shards_[i];
    MutexLock lock(shard.mutex);
    total.hits += shard.stats.hits;
    total.misses += shard.stats.misses;
    total.inserts += shard.stats.inserts;
    total.evictions += shard.stats.evictions;
    total.rejected_oversize += shard.stats.rejected_oversize;
    total.entries += shard.index.size();
    total.bytes += shard.stats.bytes;
  }
  return total;
}

}  // namespace magic
