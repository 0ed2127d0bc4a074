#ifndef MAGIC_AST_TERM_H_
#define MAGIC_AST_TERM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "ast/symbol_table.h"
#include "util/annotated_mutex.h"
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

/// Immutable node of the term arena.
struct TermData {
  TermKind kind = TermKind::kConstant;
  bool ground = true;
  /// Constant name / variable name / compound functor. Unused for kInteger
  /// and kAffine.
  SymbolId symbol = 0;
  /// kInteger: the value. kAffine: unused (see mul/add).
  int64_t value = 0;
  /// kAffine coefficients: denotes mul * var + add, mul >= 1.
  int64_t mul = 0;
  int64_t add = 0;
  /// kCompound: argument terms. kAffine: exactly one kVariable child.
  std::vector<TermId> children;
};

/// Arena of hash-consed terms. Also caches groundness and exposes variable
/// collection, which the rewrite algorithms use constantly (sip labels,
/// supplementary argument lists, adornment computation).
///
/// Thread-safety contract (the basis of concurrent query serving): `Get`,
/// `IsGround`, `AppendVariables`, `ContainsVariable`, and `size` are
/// lock-free and may race freely with the `Make*` interning calls, which
/// serialize on an internal mutex. Terms live in fixed-size chunks that are
/// never moved or freed, and a new term becomes visible to readers only via
/// a release-store of the arena size after its slot is fully constructed, so
/// an id obtained from any source is always safe to dereference.
///
/// Memory: a term costs its 56-byte TermData (plus its children's heap
/// array, for compounds and affine terms) and 5.3 to 10.7 bytes of dedup
/// table (4-byte slots, 3/8 to 3/4 full), which holds ids only and
/// compares and re-hashes through the arena (IdTable): no per-term node or
/// heap block.
class TermArena {
 public:
  TermArena() = default;
  TermArena(const TermArena&) = delete;
  TermArena& operator=(const TermArena&) = delete;

  TermId MakeConstant(SymbolId name);
  TermId MakeInteger(int64_t value);
  TermId MakeVariable(SymbolId name);
  TermId MakeCompound(SymbolId functor, std::vector<TermId> args);
  /// Builds `mul * variable + add`; `variable` must be a kVariable term and
  /// mul must be >= 1 so the expression is invertible.
  TermId MakeAffine(TermId variable, int64_t mul, int64_t add);

  const TermData& Get(TermId id) const;
  bool IsGround(TermId id) const { return Get(id).ground; }

  /// Appends the variables of `id` to `out` in first-occurrence order,
  /// skipping variables already present in `out`.
  void AppendVariables(TermId id, std::vector<SymbolId>* out) const;

  /// True if `id` contains the variable `var`.
  bool ContainsVariable(TermId id, SymbolId var) const;

  size_t size() const { return size_.load(std::memory_order_acquire); }

 private:
  /// Terms per chunk. Chunks are allocated once and never moved, so a
  /// published `TermData&` stays valid for the arena's lifetime.
  static constexpr uint32_t kChunkShift = 12;
  static constexpr uint32_t kChunkMask = (uint32_t{1} << kChunkShift) - 1;

  /// Immutable snapshot of the chunk directory. Growing the arena past the
  /// directory's capacity publishes a larger copy; retired directories are
  /// kept alive so readers holding an old pointer stay valid.
  struct ChunkDir {
    std::vector<TermData*> chunks;
  };

  TermId Intern(TermData data) EXCLUDES(mutex_);
  static uint64_t HashOf(const TermData& data);
  static bool Equal(const TermData& a, const TermData& b);

  std::atomic<size_t> size_{0};
  std::atomic<const ChunkDir*> dir_{nullptr};

  /// Writer-side lock; readers go through the atomics above only. A
  /// data-plane lock: workers intern mid-evaluation under the shared serve
  /// lock, and nothing ranked is ever taken under it.
  Mutex mutex_{lock_rank::kTermArena};
  std::vector<std::unique_ptr<TermData[]>> chunk_owner_ GUARDED_BY(mutex_);
  std::vector<std::unique_ptr<ChunkDir>> dir_owner_ GUARDED_BY(mutex_);
  /// Hash-consing table: every term's id, keyed by HashOf(Get(id)).
  IdTable dedup_ GUARDED_BY(mutex_);
};

}  // namespace magic

#endif  // MAGIC_AST_TERM_H_
