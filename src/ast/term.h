#ifndef MAGIC_AST_TERM_H_
#define MAGIC_AST_TERM_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ast/symbol_table.h"
#include "util/annotated_mutex.h"
#include "util/check.h"
#include "util/id_table.h"

namespace magic {

/// Id of a hash-consed term. Structural equality of terms in the same arena
/// is id equality, which is what makes bottom-up matching cheap.
using TermId = uint32_t;
inline constexpr TermId kInvalidTerm = 0xFFFFFFFFu;

/// The five term shapes of the paper's language.
///
///   * kConstant / kInteger — ground atoms of the Herbrand universe.
///   * kVariable            — rule variables (uppercase in the paper).
///   * kCompound            — n-ary function symbols (used by the appendix
///                            list-reverse problem; lists are '.'/2 + '[]').
///   * kAffine              — counting-index expressions `mul*V + add`
///                            (the paper's `K x m + i`, `H x t + j`, `I + 1`).
///                            Only valid in index positions of counting
///                            predicates; the evaluator both evaluates and
///                            inverts them.
enum class TermKind : uint8_t {
  kConstant,
  kInteger,
  kVariable,
  kCompound,
  kAffine,
};

/// A term as Get returns it: a small value assembled from the term's
/// record and its side data. Fields that do not apply to the kind read 0
/// (empty for `children`).
struct TermView {
  TermKind kind = TermKind::kConstant;
  bool ground = true;
  /// Constant name / variable name / compound functor. 0 for kInteger and
  /// kAffine.
  SymbolId symbol = 0;
  /// kInteger: the value.
  int64_t value = 0;
  /// kAffine coefficients: denotes mul * var + add, mul >= 1.
  int64_t mul = 0;
  int64_t add = 0;
  /// kCompound: argument terms. kAffine: exactly one kVariable child. The
  /// ids live in the arena, which never moves or frees them, so the span
  /// stays valid for the arena's lifetime, across later interning.
  std::span<const TermId> children;
};

/// Arena of hash-consed terms. Also caches groundness and exposes variable
/// collection, which the rewrite algorithms use constantly (sip labels,
/// supplementary argument lists, adornment computation).
///
/// Layout: terms are stored by kind. Every term has one 8-byte record
/// (kind, ground, 32-bit payload). A constant's or variable's payload is
/// its SymbolId; an integer's, compound's or affine term's payload indexes
/// a side array of that kind (`int64_t` values; functor plus child-list
/// position; mul, add and variable). Compound child lists are runs in one
/// append-only id array; a run never straddles two of its chunks.
///
/// Thread-safety contract (the basis of concurrent query serving): `Get`,
/// `IsGround`, `AppendVariables`, `ContainsVariable`, and `size` are
/// lock-free and may race freely with the `Make*` interning calls, which
/// serialize on an internal mutex. The record array, the side arrays and
/// the child array live in fixed-size chunks that are never moved or
/// freed, and a new term becomes visible to readers only via a
/// release-store of the arena size after its record and side data are
/// written, so an id obtained from any source is always safe to
/// dereference.
///
/// Memory: a constant or variable costs its 8-byte record; an integer 8
/// more (its value), a compound 12 more plus 4 per child, an affine term
/// 24 more. On top, the dedup table holds 5.3 to 10.7 bytes per term
/// (4-byte slots, 3/8 to 3/4 full); it holds ids only and compares and
/// re-hashes through Get (IdTable): no per-term node or heap block.
/// `bench_intern` measures 58.5 resident bytes per interned constant
/// (its name and the symbol table included), 24.5 per integer and 36.4
/// per arity-2 compound.
class TermArena {
 public:
  /// Ids per chunk of the child array. A child list never straddles two
  /// chunks: one that does not fit in the current chunk's rest starts the
  /// next chunk (a list longer than a chunk gets a block of its own).
  static constexpr uint32_t kChildChunkShift = 12;
  static constexpr uint32_t kChildChunkUnits = uint32_t{1} << kChildChunkShift;

  TermArena() = default;
  TermArena(const TermArena&) = delete;
  TermArena& operator=(const TermArena&) = delete;

  TermId MakeConstant(SymbolId name);
  TermId MakeInteger(int64_t value);
  TermId MakeVariable(SymbolId name);
  TermId MakeCompound(SymbolId functor, const std::vector<TermId>& args);
  /// Builds `mul * variable + add`; `variable` must be a kVariable term and
  /// mul must be >= 1 so the expression is invertible.
  TermId MakeAffine(TermId variable, int64_t mul, int64_t add);

  TermView Get(TermId id) const;
  bool IsGround(TermId id) const { return Record(id).ground; }

  /// Appends the variables of `id` to `out` in first-occurrence order,
  /// skipping variables already present in `out`.
  void AppendVariables(TermId id, std::vector<SymbolId>* out) const;

  /// True if `id` contains the variable `var`.
  bool ContainsVariable(TermId id, SymbolId var) const;

  size_t size() const { return size_.load(std::memory_order_acquire); }

 private:
  /// An append-only array whose units never move: chunks of 2^kShift
  /// units, allocated once and never freed, reached through a directory
  /// of chunk pointers. The directory grows by doubling; the ones it
  /// outgrows are kept, so a reader holding an old one stays valid.
  ///
  /// Appends are the arena's, under its mutex. A reader may index a unit
  /// whose index it learned through the acquire load of the arena size
  /// that follows the append; that acquire also makes the unit's chunk
  /// pointer (and the directory holding it) visible.
  template <typename T, uint32_t kShift>
  class StableArray {
   public:
    const T& operator[](uint32_t i) const {
      return dir_.load(std::memory_order_acquire)[i >> kShift][i & kMask];
    }

    /// Appends the `n` units at `units` as one contiguous run and returns
    /// the index of its first unit. A run that does not fit in the rest
    /// of the last chunk starts a new one (the rest stays unused); a run
    /// longer than a chunk gets one block spanning several chunk
    /// positions.
    uint32_t Append(const T* units, size_t n);

   private:
    static constexpr size_t kUnits = size_t{1} << kShift;
    static constexpr size_t kMask = kUnits - 1;

    std::atomic<T**> dir_{nullptr};
    size_t size_ = 0;          // units handed out, skipped rests included
    size_t chunks_ = 0;        // chunk positions covered by blocks
    size_t dir_capacity_ = 0;  // entries in the current directory
    std::vector<std::unique_ptr<T[]>> block_owner_;
    std::vector<std::unique_ptr<T*[]>> dir_owner_;
  };

  /// One term: kind, groundness and a kind-dependent payload (a SymbolId,
  /// or an index into integers_, compounds_ or affines_).
  struct TermRecord {
    TermKind kind;
    bool ground;
    uint32_t payload;
  };
  static_assert(sizeof(TermRecord) == 8);

  struct CompoundRecord {
    SymbolId functor;
    uint32_t first;  // index of the first child in children_
    uint32_t arity;
  };

  struct AffineRecord {
    int64_t mul;
    int64_t add;
    TermId variable;
  };

  const TermRecord& Record(TermId id) const {
    // The acquire load of size_ synchronizes with the release store in
    // Intern, so the record and its side data are visible.
    MAGIC_CHECK(id < size());
    return records_[id];
  }

  TermId Intern(const TermView& term) EXCLUDES(mutex_);
  static uint64_t HashOf(const TermView& term);
  static bool Equal(const TermView& a, const TermView& b);

  std::atomic<size_t> size_{0};
  StableArray<TermRecord, 12> records_;
  StableArray<int64_t, 10> integers_;
  StableArray<CompoundRecord, 10> compounds_;
  StableArray<AffineRecord, 9> affines_;
  StableArray<TermId, kChildChunkShift> children_;

  /// Writer-side lock; readers go through the atomics above only. A
  /// data-plane lock: workers intern mid-evaluation under the shared serve
  /// lock, and nothing ranked is ever taken under it.
  Mutex mutex_{lock_rank::kTermArena};
  /// Hash-consing table: every term's id, keyed by HashOf(Get(id)).
  IdTable dedup_ GUARDED_BY(mutex_);
};

inline TermView TermArena::Get(TermId id) const {
  const TermRecord& record = Record(id);
  TermView view;
  view.kind = record.kind;
  view.ground = record.ground;
  switch (record.kind) {
    case TermKind::kConstant:
    case TermKind::kVariable:
      view.symbol = record.payload;
      break;
    case TermKind::kInteger:
      view.value = integers_[record.payload];
      break;
    case TermKind::kCompound: {
      const CompoundRecord& compound = compounds_[record.payload];
      view.symbol = compound.functor;
      if (compound.arity != 0) {
        view.children = {&children_[compound.first], compound.arity};
      }
      break;
    }
    case TermKind::kAffine: {
      const AffineRecord& affine = affines_[record.payload];
      view.mul = affine.mul;
      view.add = affine.add;
      view.children = {&affine.variable, 1};
      break;
    }
  }
  return view;
}

template <typename T, uint32_t kShift>
uint32_t TermArena::StableArray<T, kShift>::Append(const T* units, size_t n) {
  if (n == 0) return static_cast<uint32_t>(size_);
  size_t first = size_;
  if ((first & kMask) + n > kUnits) first = (first + kMask) & ~kMask;
  const size_t end = first + n;
  MAGIC_CHECK(end <= UINT32_MAX);
  const size_t needed = (end + kMask) >> kShift;
  if (needed > chunks_) {
    // The run starts at the first uncovered position (every earlier chunk
    // is full or skipped), so one block covers exactly the new chunks.
    const size_t grow = needed - chunks_;
    // Not value-initialized: pages no unit is written to stay untouched.
    block_owner_.push_back(std::make_unique_for_overwrite<T[]>(grow * kUnits));
    T* block = block_owner_.back().get();
    T** dir = dir_.load(std::memory_order_relaxed);
    if (needed > dir_capacity_) {
      const size_t capacity = std::max<size_t>({16, needed, 2 * dir_capacity_});
      auto grown = std::make_unique<T*[]>(capacity);
      std::copy(dir, dir + chunks_, grown.get());
      dir = grown.get();
      dir_capacity_ = capacity;
      dir_owner_.push_back(std::move(grown));
    }
    for (size_t i = 0; i < grow; ++i) dir[chunks_ + i] = block + i * kUnits;
    // Readers reach the new entries only after the arena's release store
    // of its size, which orders this store before their loads.
    dir_.store(dir, std::memory_order_release);
    chunks_ = needed;
  }
  T* chunk = dir_.load(std::memory_order_relaxed)[first >> kShift];
  std::copy(units, units + n, chunk + (first & kMask));
  size_ = end;
  return static_cast<uint32_t>(first);
}

}  // namespace magic

#endif  // MAGIC_AST_TERM_H_
