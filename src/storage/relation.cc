#include "storage/relation.h"

#include <algorithm>
#include <bit>

#include "util/check.h"
#include "util/hash.h"

namespace magic {

namespace {

/// Capacity of a relation's first dedup table and of an index's first
/// key table.
constexpr size_t kMinSlots = 16;

/// Most rows of a probe window prefetched when the window opens: enough
/// to overlap the first rows' cache misses, too few for a huge bucket to
/// flood the cache.
constexpr ptrdiff_t kPrefetchRows = 16;

}  // namespace

Relation::Index::Index(const Index& other)
    : entries(other.entries),
      arena(other.arena),
      shift(other.shift),
      used(other.used),
      rows_built(other.rows_built.load(std::memory_order_relaxed)) {}

Relation::Relation(const Relation& other)
    : arity_(other.arity_),
      data_(other.data_),
      slots_(other.slots_),
      slot_shift_(other.slot_shift_) {
  // Copy the source's indices under its lock — pinned readers may be
  // adding masks via EnsureIndex concurrently, and a build in flight holds
  // the lock, so each index is read whole, together with its watermark.
  // The copies are installed after the source lock is released: both
  // mutexes share one rank, so they must never nest.
  std::vector<std::pair<uint64_t, std::unique_ptr<Index>>> copies;
  {
    MutexLock source_lock(other.index_mutex_);
    copies.reserve(other.indices_.size());
    for (const auto& [mask, index] : other.indices_) {
      const bool invalidated = index->rows_built.load(
                                   std::memory_order_relaxed) ==
                               kIndexInvalidated;
      copies.emplace_back(mask, invalidated ? std::make_unique<Index>()
                                            : std::make_unique<Index>(*index));
    }
  }
  if (copies.empty()) return;
  MutexLock lock(index_mutex_);
  auto table = std::make_unique<IndexTable>();
  table->entries.reserve(copies.size());
  for (auto& [mask, index] : copies) {
    table->entries.emplace_back(mask, index.get());
    indices_.emplace(mask, std::move(index));
  }
  index_table_.store(table.get(), std::memory_order_release);
  table_owner_.push_back(std::move(table));
}

uint64_t Relation::RowHash(size_t row) const {
  std::span<const TermId> r = Row(row);
  return HashRange(r.begin(), r.end());
}

size_t Relation::FindSlot(std::span<const TermId> tuple,
                          uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t slot = HomeSlot(hash);; slot = (slot + 1) & mask) {
    const uint32_t id = slots_[slot];
    if (id == 0) return slot;
    // A plain loop: std::equal becomes a memcmp call per chain step.
    const TermId* r = data_.At(id - 1);
    uint32_t i = 0;
    while (i < arity_ && r[i] == tuple[i]) ++i;
    if (i == arity_) return slot;
  }
}

size_t Relation::SlotOfRow(uint32_t row) const {
  const size_t mask = slots_.size() - 1;
  size_t slot = HomeSlot(RowHash(row));
  while (slots_[slot] != row + 1) slot = (slot + 1) & mask;
  return slot;
}

void Relation::GrowSlots() {
  const size_t capacity = std::max(kMinSlots, slots_.size() * 2);
  slots_.Assign(capacity, 0);
  slot_shift_ = static_cast<uint32_t>(64 - std::countr_zero(capacity));
  const size_t mask = capacity - 1;
  // Rows are distinct, so re-slotting needs no comparisons.
  for (size_t row = 0; row < size(); ++row) {
    size_t slot = HomeSlot(RowHash(row));
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    *slots_.MutableAt(slot) = static_cast<uint32_t>(row) + 1;
  }
}

void Relation::EraseSlot(size_t hole) {
  // Backward shift: walk the rest of the probe chain and pull back every
  // entry whose home slot does not lie strictly between the hole and its
  // current slot (cyclically), so no lookup ever crosses an empty slot
  // before reaching its row.
  const size_t mask = slots_.size() - 1;
  for (size_t next = (hole + 1) & mask; slots_[next] != 0;
       next = (next + 1) & mask) {
    const size_t home = HomeSlot(RowHash(slots_[next] - 1));
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      *slots_.MutableAt(hole) = slots_[next];
      hole = next;
    }
  }
  *slots_.MutableAt(hole) = 0;
}

bool Relation::Insert(std::span<const TermId> tuple) {
  MAGIC_CHECK(tuple.size() == arity_);
  if (arity_ == 0) {
    if (size() > 0) return false;
    data_.PushBack(tuple.data());
    return true;
  }
  const uint64_t hash = HashRange(tuple.begin(), tuple.end());
  size_t slot = 0;
  if (!slots_.empty()) {
    slot = FindSlot(tuple, hash);
    if (slots_[slot] != 0) return false;  // a duplicate writes nothing
  }
  // Grow before the new row lands, so the table stays at most 3/4 full
  // with it; the empty slot ending the probe is where that row goes.
  if ((size() + 1) * 4 > slots_.size() * 3) {
    GrowSlots();
    slot = FindSlot(tuple, hash);
  }
  const uint32_t row = CheckedRowId(size());
  data_.PushBack(tuple.data());
  *slots_.MutableAt(slot) = row + 1;
  return true;
}

bool Relation::Retract(std::span<const TermId> tuple) {
  MAGIC_CHECK(tuple.size() == arity_);
  if (arity_ == 0) {
    if (size() == 0) return false;
    data_.Clear();
    return true;
  }
  if (slots_.empty()) return false;
  const size_t slot = FindSlot(tuple, HashRange(tuple.begin(), tuple.end()));
  if (slots_[slot] == 0) return false;
  const uint32_t row = slots_[slot] - 1;
  // Swap-with-last removal: only the last row changes id, so its slot is
  // patched in place instead of the table being rebuilt — a batch
  // retracting K tuples costs O(K), not O(K * rows). Row order is not
  // semantic for a quiescent EDB (it is a set; semi-naive delta windows
  // only matter inside a fixpoint, never across the write seam).
  const uint32_t last = static_cast<uint32_t>(size()) - 1;
  EraseSlot(slot);
  if (row != last) {
    *slots_.MutableAt(SlotOfRow(last)) = row + 1;
    // The writable row first: privatizing its chunk may move it, and the
    // last row may share that chunk.
    TermId* to = data_.MutableAt(row);
    std::copy_n(data_.At(last), arity_, to);
  }
  data_.Truncate(last);
  // The per-mask indices hold stale ids for the moved row; mark each for
  // a from-scratch rebuild (one flag store per index — the bucket clear
  // itself happens once, inside the next ExtendIndex). The sentinel can
  // never equal size(), so the lock-free fast path rejects the index
  // until it is rebuilt, lazily on the next probe or via RebuildIndexes.
  {
    MutexLock lock(index_mutex_);
    for (auto& [mask, index] : indices_) {
      index->rows_built.store(kIndexInvalidated, std::memory_order_release);
    }
  }
  return true;
}

void Relation::Clear() {
  if (size() == 0) return;  // already empty: keep the built indices warm
  data_.Clear();
  slots_.Assign(slots_.size(), 0);
  // Drop all indices: the watermark design only supports appends, so a
  // truncation must start index state from scratch. Exclusive access means
  // no probe is in flight, so the retired snapshots can go too (they point
  // into indices_).
  MutexLock lock(index_mutex_);
  index_table_.store(nullptr, std::memory_order_release);
  indices_.clear();
  table_owner_.clear();
}

void Relation::RebuildIndexes() {
  MutexLock lock(index_mutex_);
  for (auto& [mask, index] : indices_) ExtendIndex(mask, index.get());
}

bool Relation::Contains(std::span<const TermId> tuple) const {
  return FindRow(tuple).has_value();
}

std::optional<uint32_t> Relation::FindRow(
    std::span<const TermId> tuple) const {
  MAGIC_CHECK(tuple.size() == arity_);
  if (arity_ == 0) {
    if (size() > 0) return 0u;
    return std::nullopt;
  }
  if (slots_.empty()) return std::nullopt;
  const uint32_t id =
      slots_[FindSlot(tuple, HashRange(tuple.begin(), tuple.end()))];
  if (id == 0) return std::nullopt;
  return id - 1;
}

uint64_t Relation::KeyHashForRow(uint64_t mask, size_t row) const {
  uint64_t h = 0xcbf29ce484222325ULL;
  std::span<const TermId> r = Row(row);
  for (uint32_t i = 0; i < arity_; ++i) {
    if (mask & (uint64_t{1} << i)) h = HashCombine(h, r[i]);
  }
  return h;
}

size_t Relation::Index::SlotOf(uint64_t hash) const {
  const uint32_t fingerprint = Fingerprint(hash);
  const size_t mask = entries.size() - 1;
  size_t slot = fingerprint >> shift;
  while (entries[slot].capacity != 0 &&
         entries[slot].fingerprint != fingerprint) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

const Relation::Index::Entry* Relation::Index::Find(uint64_t hash) const {
  if (entries.empty()) return nullptr;
  const Entry& e = entries[SlotOf(hash)];
  return e.capacity == 0 ? nullptr : &e;
}

Relation::Index::Entry* Relation::Index::Claim(uint64_t hash) {
  if ((used + 1) * 4 > entries.size() * 3) Grow();
  return entries.MutableAt(SlotOf(hash));
}

void Relation::Index::Append(uint64_t hash, uint32_t row) {
  Entry& e = *Claim(hash);
  if (e.capacity == 0) {
    e = Entry{Fingerprint(hash), NewRun(1), 0, 1};
    ++used;
  } else if (e.size == e.capacity) {
    const uint32_t extra = std::min(e.capacity, UINT32_MAX - e.capacity);
    MAGIC_CHECK(extra > 0);
    const uint32_t capacity = e.capacity + extra;
    // The last list grows in place while it stays in its chunk.
    if (size_t{e.begin} + e.capacity != arena.size() ||
        !arena.ExtendTailRun(e.begin, capacity)) {
      const uint32_t moved = NewRun(capacity);
      uint32_t* to = arena.MutableAt(moved);  // before reading: see Retract
      std::copy_n(arena.At(e.begin), e.size, to);
      e.begin = moved;
    }
    e.capacity = capacity;
  }
  arena.MutableAt(e.begin)[e.size++] = row;
}

uint32_t Relation::Index::NewRun(size_t n) {
  const size_t begin = arena.AppendRun(n);
  MAGIC_CHECK(arena.size() <= kMaxArenaUnits);
  return static_cast<uint32_t>(begin);
}

void Relation::Index::Reset() {
  entries.Assign(entries.size(), Entry{});
  arena.Clear();
  used = 0;
}

void Relation::Index::Grow() {
  const ChunkedArray<Entry> old = std::move(entries);
  const size_t capacity = std::max(kMinSlots, old.size() * 2);
  // A fingerprint's top bits pick the home slot: at most 2^32 slots.
  MAGIC_CHECK(capacity <= (size_t{1} << 32));
  entries.Assign(capacity, Entry{});
  shift = static_cast<uint32_t>(32 - std::countr_zero(capacity));
  const size_t mask = capacity - 1;
  for (size_t i = 0; i < old.size(); ++i) {
    const Entry& e = old[i];
    if (e.capacity == 0) continue;
    size_t slot = e.fingerprint >> shift;
    while (entries[slot].capacity != 0) slot = (slot + 1) & mask;
    *entries.MutableAt(slot) = e;
  }
}

void Relation::ExtendIndex(uint64_t mask, Index* index) const {
  size_t rows = size();
  size_t built = index->rows_built.load(std::memory_order_relaxed);
  if (built > rows) {
    // Invalidated by a retraction (or shrunk past the watermark): the
    // existing lists hold stale ids, so rebuild from scratch.
    index->Reset();
    built = 0;
  }
  if (built == 0) {
    BuildIndex(mask, index);
  } else {
    for (size_t row = built; row < rows; ++row) {
      index->Append(KeyHashForRow(mask, row), static_cast<uint32_t>(row));
    }
  }
  index->rows_built.store(rows, std::memory_order_release);
}

void Relation::BuildIndex(uint64_t mask, Index* index) const {
  const size_t rows = size();
  // Pass 1: each fingerprint's row count, held in its entry's capacity.
  for (size_t row = 0; row < rows; ++row) {
    const uint64_t hash = KeyHashForRow(mask, row);
    Index::Entry& e = *index->Claim(hash);
    if (e.capacity == 0) {
      e.fingerprint = Index::Fingerprint(hash);
      ++index->used;
    }
    ++e.capacity;
  }
  // Each list's run, at exactly its row count.
  for (size_t slot = 0; slot < index->entries.size(); ++slot) {
    if (index->entries[slot].capacity == 0) continue;
    Index::Entry& e = *index->entries.MutableAt(slot);
    e.begin = index->NewRun(e.capacity);
  }
  // Pass 2: the rows, in ascending order, so every list ascends.
  for (size_t row = 0; row < rows; ++row) {
    Index::Entry& e =
        *index->entries.MutableAt(index->SlotOf(KeyHashForRow(mask, row)));
    index->arena.MutableAt(e.begin)[e.size++] = static_cast<uint32_t>(row);
  }
}

const Relation::Index* Relation::EnsureIndex(uint64_t mask) const {
  // Fast path: an index published in the snapshot table was fully built
  // for some row count; while the rows are quiescent (the only state in
  // which concurrent probes are allowed) it stays current, so the hot path
  // is one acquire load and no lock.
  if (const IndexTable* table =
          index_table_.load(std::memory_order_acquire)) {
    for (const auto& [entry_mask, index] : table->entries) {
      if (entry_mask != mask) continue;
      if (index->rows_built.load(std::memory_order_acquire) == size()) {
        return index;
      }
      break;
    }
  }
  // Slow path (first probe for this mask, or rows appended since the last
  // build — both single-threaded situations per the class contract, except
  // for the one-time concurrent build race, which the mutex settles).
  MutexLock lock(index_mutex_);
  auto [it, inserted] = indices_.try_emplace(mask);
  if (inserted) it->second = std::make_unique<Index>();
  Index* index = it->second.get();
  ExtendIndex(mask, index);
  if (inserted) {
    auto grown = std::make_unique<IndexTable>();
    if (const IndexTable* current =
            index_table_.load(std::memory_order_relaxed)) {
      grown->entries = current->entries;
    }
    grown->entries.emplace_back(mask, index);
    index_table_.store(grown.get(), std::memory_order_release);
    table_owner_.push_back(std::move(grown));
  }
  return index;
}

void Relation::Probe(uint64_t mask, std::span<const TermId> key,
                     size_t from_row, size_t to_row,
                     std::vector<uint32_t>* out) const {
  // The rows are copied out before the cursor is dropped, so the caller
  // may grow this relation afterwards (the self-literal case).
  Cursor c = OpenProbe(mask, key, from_row, to_row);
  for (uint32_t row = c.Next(); row != Cursor::kDone; row = c.Next()) {
    out->push_back(row);
  }
}

Relation::Cursor Relation::OpenProbe(uint64_t mask,
                                     std::span<const TermId> key,
                                     size_t from_row, size_t to_row) const {
  MAGIC_CHECK(to_row <= size());
  Cursor c;
  c.rel_ = this;
  if (mask == kNoMask) {
    c.pos_ = from_row;
    c.end_ = to_row;
    return c;
  }
  const Index* index = EnsureIndex(mask);
  const Index::Entry* entry =
      index->Find(HashRange(key.begin(), key.end()));
  if (entry == nullptr) return c;  // empty scan: pos_ == end_ == 0
  // Listed rows ascend, so the window's start is a binary search and its
  // end is the Next() early-out at to_.
  const uint32_t* rows = index->arena.At(entry->begin);
  const uint32_t* end = rows + entry->size;
  const uint32_t* first =
      std::lower_bound(rows, end, static_cast<uint32_t>(from_row));
  // Start the loads of the window's first rows together: Next() would
  // otherwise take each row's cache miss alone, after the caller's work
  // on the row before.
  const uint32_t* stop =
      first + std::min<ptrdiff_t>(end - first, kPrefetchRows);
  for (const uint32_t* it = first; it != stop && *it < to_row; ++it) {
    __builtin_prefetch(data_.At(*it));
  }
  c.bucket_ = rows;
  c.pos_ = static_cast<size_t>(first - rows);
  c.end_ = entry->size;
  c.to_ = to_row;
  c.mask_ = mask;
  c.key_ = key.data();
  return c;
}

}  // namespace magic
