#ifndef MAGIC_AST_SYMBOL_TABLE_H_
#define MAGIC_AST_SYMBOL_TABLE_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>

#include "util/annotated_mutex.h"
#include "util/id_table.h"

namespace magic {

/// Id of an interned string (predicate name, constant name, variable name,
/// function symbol). Ids are dense indices into the owning SymbolTable.
using SymbolId = uint32_t;

/// Interns strings so the rest of the engine works with small integer ids.
///
/// Every Universe owns exactly one SymbolTable; SymbolIds from different
/// tables must never be mixed (enforced only by convention, as in most
/// interning designs).
///
/// A table may be layered over a base table (the PlanUniverse overlay):
/// ids below the base's size at overlay creation resolve through the base,
/// new interns land in this table only, and the overlay never writes the
/// base. Two overlays of one base may assign the same id to different
/// strings — that is fine because ids from different overlays are never
/// mixed (each compiled plan resolves ids through its own table only).
///
/// Concurrency contract: the table is internally synchronized, like
/// TermArena — Intern serializes on an internal mutex, Find/Name/size take
/// it shared, and storage is append-only with stable addresses (a deque),
/// so a reference returned by Name() stays valid for the table's lifetime,
/// lock dropped or not. This is what lets a *root* table keep interning at
/// runtime (the network server parses queries and new constants on many
/// connections) while compiled plans and evaluations read it concurrently.
/// Overlay tables remain effectively single-threaded (one compilation owns
/// each), but they take the base's shared lock through base_->Find/Name,
/// so compilation is safe against concurrent root interning too. The one
/// thing runtime interning must never do is re-purpose an existing id —
/// append-only growth guarantees that; see Universe for the predicate-
/// freeze rules layered on top.
///
/// Memory: a name is stored once, as a std::string in `names_` (32 bytes,
/// plus a heap block past 15 characters); the lookup table holds 5.3 to
/// 10.7 bytes of 4-byte slots per name and compares through `names_`
/// (IdTable), so a lookup allocates nothing.
class SymbolTable {
 public:
  SymbolTable() = default;
  /// Overlay constructor. `base` must outlive this table; the overlay
  /// captures the base's current size as its id offset, and ids the base
  /// assigns later belong to the base alone (the overlay never resolves
  /// them).
  explicit SymbolTable(const SymbolTable* base)
      : base_(base), offset_(static_cast<SymbolId>(base->size())) {}
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  /// Returns the id for `name`, interning it on first use. An overlay
  /// returns the base's id when the base already has the name.
  SymbolId Intern(std::string_view name);

  /// Returns the id for `name` if it has been interned (in the base or
  /// this layer).
  std::optional<SymbolId> Find(std::string_view name) const;

  /// Returns the string for an interned id. The reference is stable for
  /// the table's lifetime (append-only deque storage).
  const std::string& Name(SymbolId id) const;

  size_t size() const;

 private:
  static uint64_t HashOf(std::string_view name);
  /// This layer's id for `name` (whose HashOf is `hash`), if interned here.
  std::optional<SymbolId> FindLocked(std::string_view name,
                                     uint64_t hash) const
      REQUIRES_SHARED(mutex_);
  /// Base lookup filtered to the overlay's id horizon: a name the base
  /// interned *after* this overlay captured offset_ gets an id >= offset_,
  /// which would alias an overlay-local id — such a hit must be treated as
  /// a miss (and, in Intern, shadowed by an overlay-local entry).
  std::optional<SymbolId> FindInBase(std::string_view name) const;

  const SymbolTable* base_ = nullptr;
  SymbolId offset_ = 0;
  /// Root tables rank kSymbolRoot; each overlay layer sits one step below
  /// its base, so the contract's overlay -> base acquisition order is a
  /// strictly ascending rank chain (and base -> overlay aborts in Debug).
  mutable SharedMutex mutex_{base_ == nullptr
                                 ? lock_rank::kSymbolRoot
                                 : base_->mutex_.rank() -
                                       lock_rank::kOverlayStep};
  /// Deque, not vector: growth never moves existing strings, so Name()'s
  /// returned references survive concurrent interning.
  std::deque<std::string> names_ GUARDED_BY(mutex_);
  /// Lookup table of this layer's names: stores `id - offset_`, keyed by
  /// HashOf(names_[id - offset_]).
  IdTable index_ GUARDED_BY(mutex_);
};

}  // namespace magic

#endif  // MAGIC_AST_SYMBOL_TABLE_H_
