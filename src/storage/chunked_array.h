#ifndef MAGIC_STORAGE_CHUNKED_ARRAY_H_
#define MAGIC_STORAGE_CHUNKED_ARRAY_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace magic {

struct RelationTestPeer;

/// Bytes of one full chunk of a ChunkedArray.
inline constexpr size_t kChunkBytes = size_t{64} << 10;

namespace chunked_array_internal {
/// Bytes of the blocks ChunkedArrays allocated on this thread, so far.
inline thread_local uint64_t allocated_bytes = 0;
}  // namespace chunked_array_internal

/// Bytes of chunk storage every ChunkedArray allocated on the calling
/// thread so far: chunks copied out of shared ones plus fresh ones. A
/// caller that mutates on one thread reads it before and after; the
/// difference is what the mutation copied or allocated.
inline uint64_t ChunkBytesAllocatedByThisThread() {
  return chunked_array_internal::allocated_bytes;
}

/// log2 of the units a full chunk of T holds: the most that fit in
/// kChunkBytes, rounded down to a power of two.
template <typename T>
inline constexpr uint32_t kChunkShiftFor =
    static_cast<uint32_t>(std::countr_zero(std::bit_floor(kChunkBytes / sizeof(T))));

/// A growable array of fixed-width units (a unit is `width` Ts: a
/// relation row, a table slot) stored as refcounted blocks, so a copy
/// shares every block and costs one pointer vector plus one refcount
/// increment per block.
///
/// Layout: a full chunk holds 2^kShift units (a compile-time constant,
/// so addressing is a shift and a mask), so unit i lives at
/// `blocks_[i >> kShift] + (i & mask) * width` and never straddles two
/// blocks. An array that fits in one chunk is one block that grows
/// geometrically, as a vector does, so a small array pays for what it
/// holds, not for a full chunk. A longer one is a full first block plus
/// full chunks.
///
/// Copy-on-write: a block is written only by an array that owns it
/// alone. Every mutating member privatizes the block it writes first:
/// when another array still holds it, the used part is copied into a
/// fresh block, and this array's reference moves there. Const members
/// never write. So a copy, and the array it was copied from, can each be
/// mutated afterwards without the other ever seeing it, and a mutation
/// costs O(blocks it touches), not O(array).
///
/// Thread safety: distinct arrays that share blocks may be used and
/// destroyed on different threads concurrently (the refcount is atomic,
/// and ownership is proven with an acquire load; see Own). One array
/// follows the usual rules: any number of concurrent const calls, or one
/// mutating call at a time. A pointer returned by At or MutableAt is
/// valid until the next mutating call on this array, because that call
/// may move the block; take a mutable pointer first, then read.
///
/// Runs (the index arena): AppendRun hands out a contiguous run of units
/// that never straddles a block; a run longer than a full chunk gets an
/// oversized block of its own, which spans ceil(n / full) chunk positions
/// (the first holds the block, the rest stay null). A run is addressed
/// only from its first unit.
template <typename T, uint32_t kShift = kChunkShiftFor<T>>
class ChunkedArray {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

 public:
  explicit ChunkedArray(uint32_t width = 1) : width_(width) {}

  /// Shares every block of `other`.
  ChunkedArray(const ChunkedArray& other)
      : blocks_(other.blocks_),
        first_(other.first_),
        size_(other.size_),
        width_(other.width_),
        exclusive_(blocks_.empty()) {
    other.exclusive_.store(blocks_.empty(), std::memory_order_relaxed);
    for (T* block : blocks_) {
      if (block != nullptr) {
        HeaderOf(block)->refs.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  /// Takes `other`'s blocks, leaving it empty (same width).
  ChunkedArray(ChunkedArray&& other) noexcept
      : blocks_(std::move(other.blocks_)),
        first_(std::exchange(other.first_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        width_(other.width_),
        exclusive_(other.exclusive_.load(std::memory_order_relaxed)) {
    other.blocks_.clear();
    other.exclusive_.store(true, std::memory_order_relaxed);
  }

  ChunkedArray& operator=(const ChunkedArray&) = delete;
  ChunkedArray& operator=(ChunkedArray&&) = delete;

  ~ChunkedArray() { Release(); }

  /// Units held.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Units per full chunk.
  static constexpr size_t chunk_units() { return size_t{1} << kShift; }

  /// The first T of unit `i`; the unit's `width` Ts follow contiguously.
  const T* At(size_t i) const {
    return BlockAt(i >> kShift) + (i & kMask) * width_;
  }
  /// Element `i` of a width-1 array.
  const T& operator[](size_t i) const {
    return BlockAt(i >> kShift)[i & kMask];
  }

  /// At(i), made writable: privatizes the block holding unit `i` first.
  /// `i` may be size() when that unit's block already exists (an append
  /// writing its unit before bumping the size).
  T* MutableAt(size_t i) { return Own(i >> kShift) + (i & kMask) * width_; }

  /// Appends one unit, copied from `unit` (`width` Ts).
  void PushBack(const T* unit) {
    Reserve(size_ >> kShift, (size_ & kMask) + 1);
    std::copy_n(unit, width_, MutableAt(size_));
    ++size_;
  }

  /// Drops the units from `n` on (n <= size()) and releases the blocks
  /// that then hold none.
  void Truncate(size_t n) {
    size_ = n;
    const size_t keep = (n + kMask) >> kShift;
    while (blocks_.size() > keep) {
      Unref(blocks_.back());
      blocks_.pop_back();
    }
    if (blocks_.empty()) {
      first_ = nullptr;
      exclusive_.store(true, std::memory_order_relaxed);
    }
  }

  /// Drops every unit and releases every block.
  void Clear() { Truncate(0); }

  /// Replaces the contents with `n` copies of `value` (width-1 arrays) in
  /// fresh blocks: a shared block is released, never copied only to be
  /// overwritten.
  void Assign(size_t n, const T& value) {
    Clear();
    size_ = n;
    for (size_t start = 0; start < n; start += chunk_units()) {
      T* block = NewBlock(std::min(chunk_units(), n));
      std::fill_n(block, std::min(chunk_units(), n - start), value);
      Push(block);
    }
  }

  /// Appends a run of `n` units (width-1 arrays), contiguous in one
  /// block, and returns its first unit. The run's contents are
  /// unspecified until written. The units a run skips to start on a fresh
  /// chunk, or an oversized run's unused tail, are never handed out.
  size_t AppendRun(size_t n) {
    size_t begin = size_;
    if ((begin & kMask) + n > chunk_units()) begin = RoundUp(begin);
    if (n > chunk_units()) {
      const size_t spans = (n + kMask) >> kShift;
      Push(NewBlock(n));
      blocks_.resize(blocks_.size() + spans - 1, nullptr);
      size_ = begin + (spans << kShift);
      return begin;
    }
    Reserve(begin >> kShift, (begin & kMask) + n);
    size_ = begin + n;
    return begin;
  }

  /// Grows the run that starts at `begin` and ends at size() to `n`
  /// units in place. False, with nothing changed, when the grown run
  /// would leave its block's chunk span (the caller moves it instead).
  bool ExtendTailRun(size_t begin, size_t n) {
    if ((begin & kMask) + n > chunk_units()) return false;
    Reserve(begin >> kShift, (begin & kMask) + n);
    size_ = begin + n;
    return true;
  }

 private:
  friend struct RelationTestPeer;  // white-box checks of what copies share

  /// Precedes every block's units; 16 bytes keep the units 16-aligned.
  struct alignas(16) Header {
    std::atomic<uint64_t> refs;
    size_t capacity;  // units
  };

  /// Block `b`. The first is also held inline, so an array that fits in
  /// one chunk (every small relation) addresses a unit without a load
  /// from the block table on its critical path.
  T* BlockAt(size_t b) const {
    if (b == 0) [[likely]] return first_;
    return blocks_[b];
  }
  void Set(size_t b, T* block) {
    blocks_[b] = block;
    if (b == 0) first_ = block;
  }
  void Push(T* block) {
    blocks_.push_back(block);
    if (blocks_.size() == 1) first_ = block;
  }

  static Header* HeaderOf(T* block) {
    return reinterpret_cast<Header*>(block) - 1;
  }

  T* NewBlock(size_t capacity) {
    const size_t bytes = capacity * width_ * sizeof(T);
    chunked_array_internal::allocated_bytes += bytes;
    void* raw = ::operator new(sizeof(Header) + bytes);
    Header* header = new (raw) Header{{1}, capacity};
    return reinterpret_cast<T*>(header + 1);
  }

  static void Unref(T* block) {
    if (block == nullptr) return;
    Header* header = HeaderOf(block);
    if (header->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      ::operator delete(header);
    }
  }

  void Release() {
    for (T* block : blocks_) Unref(block);
  }

  size_t RoundUp(size_t i) const { return (i + kMask) & ~kMask; }

  /// Units of block `b` in use: those below size().
  size_t UsedIn(size_t b) const {
    const size_t start = b << kShift;
    return size_ > start ? std::min(HeaderOf(BlockAt(b))->capacity,
                                    size_ - start)
                         : 0;
  }

  /// Block `b`, owned by this array alone, copying it first if shared.
  /// The proof of sole ownership is an acquire load of 1: every other
  /// array that held the block dropped it with a release decrement, so
  /// its reads of the block happen before this array's writes — even
  /// when that was a pinned old version released on a reader thread.
  /// The count cannot rise meanwhile: only arrays holding the block can
  /// copy it, and at count 1 that is this one, which is being mutated.
  /// An array never copied since its blocks were allocated skips the
  /// check: it allocated every block itself and shared none.
  T* Own(size_t b) {
    T* block = BlockAt(b);
    if (exclusive_.load(std::memory_order_relaxed) ||
        HeaderOf(block)->refs.load(std::memory_order_acquire) == 1) {
      return block;
    }
    return Privatize(b);
  }

  /// Replaces shared block `b` with a private copy of its used units. Kept
  /// out of line so the owned-block path of every write stays inlined.
  [[gnu::noinline]] T* Privatize(size_t b) {
    T* block = BlockAt(b);
    T* copy = NewBlock(HeaderOf(block)->capacity);
    std::memcpy(copy, block, UsedIn(b) * width_ * sizeof(T));
    Set(b, copy);
    Unref(block);
    return copy;
  }

  /// Makes units [0, units) of chunk position `b` addressable: `b` is the
  /// last position or one past it.
  void Reserve(size_t b, size_t units) {
    if (b == blocks_.size() ||
        HeaderOf(BlockAt(b))->capacity < units) [[unlikely]] {
      Extend(b, units);
    }
  }

  /// Reserve's slow path, out of line like Privatize: appends reach it
  /// once per block, not once per unit. Only a lone first block is ever
  /// short of a full chunk; it regrows geometrically.
  [[gnu::noinline]] void Extend(size_t b, size_t units) {
    if (b == blocks_.size()) {
      Push(NewBlock(b == 0 ? std::min(chunk_units(),
                                      std::max<size_t>(kFirstUnits, units))
                           : chunk_units()));
      return;
    }
    T* block = BlockAt(b);
    const size_t capacity = HeaderOf(block)->capacity;
    T* grown = NewBlock(std::min(chunk_units(), std::max(2 * capacity, units)));
    std::memcpy(grown, block, UsedIn(b) * width_ * sizeof(T));
    Set(b, grown);
    Unref(block);
  }

  static constexpr size_t kMask = chunk_units() - 1;
  /// Units of a first block.
  static constexpr size_t kFirstUnits = 16;

  std::vector<T*> blocks_;  // chunk position -> units (null: see AppendRun)
  T* first_ = nullptr;      // blocks_[0], or null when there is none
  size_t size_ = 0;         // units
  uint32_t width_;          // Ts per unit
  /// True while every block was allocated by this array and no copy of it
  /// was made since (a copy clears it on both arrays; releasing every
  /// block sets it), so a write needs no refcount check. Atomic only
  /// because concurrent const copies may each clear it.
  mutable std::atomic<bool> exclusive_{true};
};

}  // namespace magic

#endif  // MAGIC_STORAGE_CHUNKED_ARRAY_H_
