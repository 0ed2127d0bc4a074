#ifndef MAGIC_STORAGE_RELATION_H_
#define MAGIC_STORAGE_RELATION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "ast/term.h"
#include "storage/chunked_array.h"
#include "util/annotated_mutex.h"
#include "util/check.h"
#include "util/hash.h"

namespace magic {

/// A set of ground tuples of fixed arity, stored in chunks and append-only.
///
/// Storage is two arrays: the rows themselves (`data_`, arity ids per
/// row) and a dedup table of row ids (`slots_`: open addressing, slot value
/// = row + 1 with 0 for empty, linear probing, a power-of-two capacity at
/// most 3/4 full). Membership is a probe from the slot a multiply-shift mix
/// of the tuple hash picks, comparing rows until an empty slot. Retract
/// removes by swap-with-last and backward-shift deletion, so insert/retract
/// churn leaves no tombstones and the table never needs a cleanup pass.
///
/// Each array, and each per-mask index's two arrays, is a ChunkedArray of
/// refcounted, copy-on-write chunks of kChunkBytes (64 KiB). A data chunk
/// holds 8192 whole rows (64 KiB at arity 2), so row r is at
/// `chunk[r >> 13] + (r & 8191) * arity` and Row() stays one contiguous
/// span.
/// A relation smaller than one chunk keeps each array in one block that
/// grows geometrically, as a vector does. A copy shares every chunk; a
/// mutation copies only the chunks it writes while another version still
/// holds them (see the copy constructor).
///
/// Append-only storage gives the semi-naive evaluator its deltas for free:
/// the delta of an iteration is a row range [prev_size, cur_size), so no
/// separate delta relations are materialized.
///
/// Point lookups build hash indices lazily, one per bound-column mask, and
/// extend them incrementally as rows are appended (the iterator-invalidation
/// hazards of rebuilding mid-fixpoint are avoided by the watermark design).
///
/// Memory bound: a version pinned while K later commits run holds, beyond
/// what the head holds, only the chunks those commits replaced: the chunks
/// they privatized, plus any array they built afresh (a dedup-table
/// doubling, an index doubling, or the index rebuild a retract forces).
///
/// Concurrency contract: `Insert` (and any other mutation of the row data)
/// requires exclusive access — rows are written single-threaded, e.g. while
/// loading an EDB or inside one evaluator's fixpoint. Once the rows are
/// quiescent, all const members including `Probe` are safe to call from any
/// number of threads concurrently: the lazy per-mask index build that Probe
/// performs under `const` runs behind a mutex, and an index is published
/// into an immutable snapshot table (atomic pointer, release/acquire) only
/// once it is fully built for the current row count. Steady-state probes
/// are therefore a single acquire load with no read-side lock at all —
/// this is what lets QueryService serve many queries against one shared
/// Relation without the probe hot path contending on anything. Under the
/// MVCC write path a relation shared with a pinned DatabaseVersion is
/// never mutated at all: Database copy-on-writes it (the copy constructor
/// below), so "exclusive access" for mutation means exclusive access to
/// the writer's private clone. Chunks shared between versions are never
/// written by either: the writer copies a chunk before writing it unless
/// it proves itself the chunk's sole owner (ChunkedArray::Own), and the
/// last owner of a retired version may release it on any thread.
class Relation {
 public:
  /// Most rows a relation can hold. Row ids are uint32_t, a dedup slot
  /// stores row + 1, and Cursor::kDone (UINT32_MAX) must never be a row,
  /// so the largest usable row id is UINT32_MAX - 1.
  static constexpr size_t kMaxRows = size_t{UINT32_MAX};

  /// Narrows a row index to a row id, aborting at kMaxRows or beyond
  /// instead of silently wrapping. Insert takes every new row's id here.
  static uint32_t CheckedRowId(size_t row) {
    MAGIC_CHECK(row < kMaxRows);
    return static_cast<uint32_t>(row);
  }

  explicit Relation(uint32_t arity) : arity_(arity), data_(arity) {}

  /// Copy-on-write clone: shares every chunk of the rows, the dedup table
  /// and every per-mask index the source has built (buckets and
  /// `rows_built` watermark included), so the copy is a pointer vector
  /// and a refcount increment per chunk, whatever the row count, and
  /// publishes the indices at once. The clone and the source then copy a
  /// chunk only when they first write it while the other still holds it:
  /// a batch costs O(chunks it touches), and retiring the source frees
  /// only the chunks the clone replaced. A writer that only appends to the
  /// clone extends each index from its watermark (RebuildIndexes) instead
  /// of re-indexing every row. An index a retract has invalidated is
  /// carried as an empty one (rows_built = 0), rebuilt from row 0 on the
  /// next RebuildIndexes or probe. Safe to call while other threads probe
  /// the SOURCE (its indices are read under its mutex); the clone itself
  /// is invisible to them until the caller publishes it.
  Relation(const Relation& other);
  Relation& operator=(const Relation&) = delete;

  uint32_t arity() const { return arity_; }
  size_t size() const { return data_.size(); }

  /// Inserts a tuple; returns true if it was new.
  bool Insert(std::span<const TermId> tuple);

  /// Removes one tuple; returns true if it was present, false (and no
  /// change) for an absent tuple. Removal is
  /// swap-with-last (row order is not semantic at rest), so the call is
  /// O(arity + probe chain) — a batch of K retracts costs O(K), plus one
  /// index rebuild per relation afterwards: retraction breaks the
  /// append-only watermark design, so the per-mask indices are marked
  /// invalidated and rebuilt from scratch (lazily on the next probe, or
  /// eagerly via RebuildIndexes). Requires exclusive access, like Insert.
  bool Retract(std::span<const TermId> tuple);

  /// Removes every tuple (and all indices). A no-op on an already-empty
  /// relation, whose built indices stay warm. Requires exclusive access,
  /// like Insert.
  void Clear();

  /// Rebuilds every previously-built per-mask index up to the current row
  /// count and leaves the snapshot table published, so the first probe
  /// after a mutation batch pays no build. Intended for the write seam
  /// (called while the writer still holds exclusive access); a no-op when
  /// no index was ever built.
  void RebuildIndexes();

  bool Contains(std::span<const TermId> tuple) const;

  /// Returns the row index of `tuple`, or nullopt if absent.
  std::optional<uint32_t> FindRow(std::span<const TermId> tuple) const;

  std::span<const TermId> Row(size_t row) const {
    return std::span<const TermId>(data_.At(row), arity_);
  }

  /// Appends to `out` the rows in [from_row, to_row) whose columns selected
  /// by `mask` (bit i = column i) equal `key[k]` for the k-th set bit.
  /// Builds/extends the index for `mask` on demand. The copy-out form of
  /// OpenProbe (it drains one cursor), for callers that grow this
  /// relation while they still use the rows.
  void Probe(uint64_t mask, std::span<const TermId> key, size_t from_row,
             size_t to_row, std::vector<uint32_t>* out) const;

  /// Allocation-free probe: yields the row indices Probe would produce,
  /// one Next() at a time, with no output vector. The cursor borrows the
  /// relation, the key storage, and (for mask != 0) the index row list it
  /// iterates, so it is only valid while none of those move: rows and
  /// indices of *this relation for this mask* must not grow while the
  /// cursor is live (appending to a different relation, or building a
  /// different mask's index, is fine — Index objects are stable once
  /// created). The compiled join loop guarantees this by routing
  /// self-recursive literals (whose relation grows mid-rule) through the
  /// copy-out Probe instead.
  class Cursor {
   public:
    /// Sentinel returned when the cursor is exhausted.
    static constexpr uint32_t kDone = 0xFFFFFFFFu;

    /// Next matching row index in ascending order, or kDone.
    uint32_t Next() {
      if (bucket_ == nullptr) {  // scan path (mask == 0)
        if (pos_ >= end_) return kDone;
        return static_cast<uint32_t>(pos_++);
      }
      while (pos_ < end_) {
        const uint32_t row = bucket_[pos_++];
        if (row >= to_) return kDone;  // bucket rows ascend: nothing further
        if (rel_->RowMatchesKey(mask_, key_, row)) return row;
      }
      return kDone;
    }

   private:
    friend class Relation;
    const Relation* rel_ = nullptr;
    const uint32_t* bucket_ = nullptr;  // null => scan path
    size_t pos_ = 0;   // scan: next row; bucket: next bucket position
    size_t end_ = 0;   // scan: to_row; bucket: bucket size
    size_t to_ = 0;    // bucket path: exclusive row bound
    uint64_t mask_ = 0;
    const TermId* key_ = nullptr;  // borrowed; caller keeps it alive
  };

  /// Opens a cursor over the rows Probe(mask, key, from_row, to_row, ...)
  /// would return. Builds/extends the index for `mask` on demand (same
  /// ensure logic as Probe); the steady-state open is one acquire load, a
  /// hash, and a bucket find — no allocation. `key` is borrowed and must
  /// outlive the cursor.
  Cursor OpenProbe(uint64_t mask, std::span<const TermId> key,
                   size_t from_row, size_t to_row) const;

  /// All row indices in [from_row, to_row) (scan path, mask == 0).
  static constexpr uint64_t kNoMask = 0;

 private:
  friend struct RelationTestPeer;  // white-box dedup-table checks in tests

  /// rows_built value marking an index whose lists hold stale row ids
  /// (set by Retract); ExtendIndex sees it as "built > rows" and rebuilds
  /// from scratch. Can never equal a real row count, so the lock-free
  /// fast path always rejects an invalidated index.
  static constexpr size_t kIndexInvalidated = ~size_t{0};

  /// log2 of the rows in one data chunk: 8192 rows, kChunkBytes at arity
  /// 2 (the common EDB shape), so a chunk stays 32-128 KiB for arities
  /// 1-4 and the row address needs no per-relation shift.
  static constexpr uint32_t kRowChunkShift =
      kChunkShiftFor<TermId> - 1;

  /// One per-mask probe index, chunked like the rows: an open-addressing
  /// table of 16-byte entries (linear probing, power-of-two capacity at
  /// most 3/4 full), each locating one ascending row list in an arena.
  ///
  /// An entry is keyed by a 32-bit fingerprint, the high half of the
  /// multiply-shift mix of the key hash; its top bits are also the home
  /// slot, so a doubling re-slots entries from their fingerprints alone.
  /// Keys whose fingerprints collide share one list. That is correct
  /// because a cursor checks every listed row against its key
  /// (RowMatchesKey), and rare: about n^2 / 2^33 colliding pairs among n
  /// random keys, and fewer among consecutive ids, which the mix spreads
  /// evenly.
  ///
  /// A build from scratch (a new mask, or the rebuild a retract forces)
  /// places each list once at exactly its row count (BuildIndex), so it
  /// leaves neither holes nor spare room. Extending past the watermark
  /// then finds every list full: a full list doubles and moves to the
  /// arena's end, except that the list already at the end grows in place
  /// while it stays in its chunk. So one write batch's appends write only
  /// the arena's tail and the lists it moved there, not one chunk per
  /// touched list. The hole a move leaves is reclaimed by the next rebuild
  /// from scratch, and holes never outgrow the live lists. Every list is
  /// contiguous (ChunkedArray::AppendRun: no list straddles a chunk, and
  /// one longer than a chunk has an oversized block of its own), so a
  /// cursor walks it through a raw pointer. An entry holds a list's first
  /// unit in 32 bits, so an index's arena is bounded at 2^32 units:
  /// placing a list past that aborts, as a row id past kMaxRows does.
  /// Copying an index shares its chunks, and an index allocates chunks,
  /// never one block per key.
  struct Index {
    struct Entry {
      uint32_t fingerprint = 0;
      uint32_t begin = 0;     // arena unit of the row list's first row
      uint32_t size = 0;
      uint32_t capacity = 0;  // 0 marks an empty slot
    };
    static_assert(sizeof(Entry) == 16);
    /// Most units an index's arena may span (see the struct comment).
    static constexpr size_t kMaxArenaUnits = size_t{1} << 32;

    ChunkedArray<Entry> entries;
    ChunkedArray<uint32_t> arena;
    uint32_t shift = 32;  // 32 - log2(entries.size())
    size_t used = 0;      // occupied entries
    /// Release-stored after the list writes of a build; the lock-free
    /// fast path acquires it, so seeing rows_built == size() proves the
    /// lists for those rows are fully visible. A reader seeing a stale
    /// value (including kIndexInvalidated) falls through to the
    /// mutex-guarded build path.
    std::atomic<size_t> rows_built{0};

    Index() = default;
    /// Shares `other`'s chunks; the caller holds `other`'s index mutex.
    Index(const Index& other);

    /// The fingerprint of key hash `hash`.
    static uint32_t Fingerprint(uint64_t hash) {
      return static_cast<uint32_t>(HashSlot(hash, 32));
    }

    /// The slot of `hash`'s entry, or of the empty entry ending its probe
    /// chain (the table is non-empty).
    size_t SlotOf(uint64_t hash) const;
    /// The entry for `hash`'s fingerprint, or null when no row has it.
    const Entry* Find(uint64_t hash) const;
    /// The entry for `hash`'s fingerprint, or the empty one ending its
    /// probe chain, which the caller fills in (a nonzero capacity) and
    /// counts in `used`. Doubles the table first when one more entry would
    /// pass 3/4 full.
    Entry* Claim(uint64_t hash);
    /// Appends `row`, larger than every row listed so far, to the list of
    /// `hash`'s fingerprint.
    void Append(uint64_t hash, uint32_t row);
    /// A fresh run of `n` arena units; returns its first unit.
    uint32_t NewRun(size_t n);
    /// Drops every list, keeping the table's size (in fresh chunks).
    void Reset();

   private:
    void Grow();
  };

  /// Immutable snapshot of the indices built so far; a handful of (mask,
  /// index) pairs, so lookup is a scan. Republished (never mutated) when a
  /// new mask's index is built; retired snapshots are kept alive for
  /// readers still holding the old pointer.
  struct IndexTable {
    std::vector<std::pair<uint64_t, const Index*>> entries;
  };

  uint64_t KeyHashForRow(uint64_t mask, size_t row) const;

  /// Dedup-table helpers (the table is non-empty whenever size() > 0).
  size_t HomeSlot(uint64_t hash) const { return HashSlot(hash, slot_shift_); }
  uint64_t RowHash(size_t row) const;
  /// The slot holding `tuple`, or the empty slot ending its probe chain.
  size_t FindSlot(std::span<const TermId> tuple, uint64_t hash) const;
  /// The slot holding row id `row` (present by construction).
  size_t SlotOfRow(uint32_t row) const;
  /// Doubles the table (16 slots when empty) into fresh chunks and
  /// re-slots every row.
  void GrowSlots();
  /// Empties `slot` by backward-shift deletion.
  void EraseSlot(size_t slot);
  /// Brings `index` up to the current row count: BuildIndex when nothing
  /// is built (or a retract invalidated it), Index::Append past the
  /// watermark otherwise.
  void ExtendIndex(uint64_t mask, Index* index) const REQUIRES(index_mutex_);
  /// Fills the empty `index` with every row in two passes over the rows:
  /// count each fingerprint's rows, place each list once at exactly that
  /// count, then write the lists in ascending row order.
  void BuildIndex(uint64_t mask, Index* index) const REQUIRES(index_mutex_);
  /// Returns the index for `mask`, built up to the current row count
  /// (lock-free when already current; mutex-guarded build otherwise).
  const Index* EnsureIndex(uint64_t mask) const;

  /// True when the columns of `row` selected by `mask` equal `key` (k-th
  /// set bit -> key[k]). Inline: this is the per-row check on the
  /// cursor hot path.
  bool RowMatchesKey(uint64_t mask, const TermId* key, size_t row) const {
    const TermId* r = data_.At(row);
    size_t k = 0;
    for (uint32_t i = 0; i < arity_; ++i) {
      if (mask & (uint64_t{1} << i)) {
        if (r[i] != key[k++]) return false;
      }
    }
    return true;
  }

  uint32_t arity_;
  /// One unit per row, `arity_` ids wide (0-ary relations hold at most one
  /// row, of no ids); a chunk holds 2^kRowChunkShift rows.
  ChunkedArray<TermId, kRowChunkShift> data_;
  /// Dedup table: row + 1 per occupied slot, 0 when empty (see the class
  /// comment). slot_shift_ = 64 - log2(slots_.size()).
  ChunkedArray<uint32_t> slots_;
  uint32_t slot_shift_ = 64;

  mutable std::atomic<const IndexTable*> index_table_{nullptr};
  /// Guards the two owners below. A data-plane lock: legal under the
  /// exclusive serve seam (ApplyWrites rebuilds indices through it) as
  /// well as under any shared-side evaluation lock.
  mutable Mutex index_mutex_{lock_rank::kRelationIndex};
  mutable std::unordered_map<uint64_t, std::unique_ptr<Index>> indices_
      GUARDED_BY(index_mutex_);
  mutable std::vector<std::unique_ptr<IndexTable>> table_owner_
      GUARDED_BY(index_mutex_);
};

}  // namespace magic

#endif  // MAGIC_STORAGE_RELATION_H_
