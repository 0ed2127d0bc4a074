#ifndef MAGIC_AST_UNIVERSE_H_
#define MAGIC_AST_UNIVERSE_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ast/predicate.h"
#include "ast/symbol_table.h"
#include "ast/term.h"

namespace magic {

/// The shared interning context: symbols, hash-consed terms, and the
/// predicate registry. A Program and the Database it is evaluated against
/// must share one Universe so term ids are comparable.
///
/// A Universe can also be a *plan overlay* (the PlanUniverse of the
/// compile/evaluate split): constructed over a frozen base Universe, it
/// shares the base's TermArena (term ids stay comparable with the EDB) and
/// layers plan-local symbol/predicate extension tables over the base's.
/// Compilation (adornment, the magic/counting rewrites) then declares its
/// adorned/magic predicates into the overlay only — the base tables are
/// physically immutable through it — so any number of plans can compile
/// and evaluate concurrently against one shared base. All three interning
/// layers are internally synchronized (TermArena, SymbolTable,
/// PredicateTable), so a *root* universe may keep interning constants and
/// symbols at runtime — the network server parses queries carrying new
/// constants on many connections — while overlays compile and evaluate
/// against it. What stays forbidden at runtime is *using* predicates
/// declared after serving started: the serving surfaces freeze the
/// predicate id range and reject such queries/writes (QueryService).
class Universe {
 public:
  Universe() : terms_(std::make_shared<TermArena>()) {}
  /// Plan-overlay constructor: layers this universe over the frozen
  /// `base`, sharing its term arena. Keeps `base` alive.
  explicit Universe(std::shared_ptr<const Universe> base)
      : base_(std::move(base)),
        symbols_(&base_->symbols_),
        predicates_(&base_->predicates_),
        terms_(base_->terms_),
        fresh_counter_(base_->fresh_counter_.load()) {}
  Universe(const Universe&) = delete;
  Universe& operator=(const Universe&) = delete;

  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }
  /// The term arena is internally synchronized (interning serializes on an
  /// internal mutex; reads are lock-free), so term construction is allowed
  /// through a const Universe — which is what lets evaluation run against
  /// `const` compiled plans while still building compound/affine terms.
  TermArena& terms() const { return *terms_; }
  PredicateTable& predicates() { return predicates_; }
  const PredicateTable& predicates() const { return predicates_; }

  /// True when this universe is a plan overlay over a frozen base.
  bool is_overlay() const { return base_ != nullptr; }
  /// The frozen base (null for a root universe).
  const std::shared_ptr<const Universe>& base() const { return base_; }

  // -- Term construction conveniences -------------------------------------
  // The symbol-interning ones (Sym/Constant/Variable/Compound) mutate the
  // symbol table; on a root universe that is safe at any time (the table
  // is internally synchronized), on an overlay it is compile-time only
  // (one compilation owns each overlay). The arena-only ones
  // (Integer/Affine) are const and safe during evaluation.

  SymbolId Sym(std::string_view name) { return symbols_.Intern(name); }
  TermId Constant(std::string_view name) {
    return terms().MakeConstant(Sym(name));
  }
  TermId Integer(int64_t value) const { return terms().MakeInteger(value); }
  TermId Variable(std::string_view name) {
    return terms().MakeVariable(Sym(name));
  }
  TermId Compound(std::string_view functor,
                  const std::vector<TermId>& args) {
    return terms().MakeCompound(Sym(functor), args);
  }
  TermId Affine(TermId variable, int64_t mul, int64_t add) const {
    return terms().MakeAffine(variable, mul, add);
  }

  /// Returns a variable guaranteed not to collide with any variable interned
  /// so far (used for anonymous variables and counting-index variables).
  TermId FreshVariable(std::string_view prefix);

  // -- Lists (sugar for the appendix list-reverse problem) ----------------

  /// The empty list constant `[]`.
  TermId NilTerm() { return Constant("[]"); }
  /// The cons cell `[head | tail]`, functor '.'/2.
  TermId Cons(TermId head, TermId tail) {
    return terms().MakeCompound(Sym("."), {head, tail});
  }
  /// Builds a proper list of `items`.
  TermId MakeList(const std::vector<TermId>& items);

  /// Renders a term with list sugar and affine-index formatting; used by the
  /// printer and error messages.
  std::string TermToString(TermId id) const;

  /// Picks a predicate name based on `desired` that is unused at `arity`,
  /// appending numeric suffixes if needed (rewrites mangle names like
  /// "magic_sg_bf" which could in principle collide with user predicates).
  SymbolId UniquePredicateName(std::string_view desired, uint32_t arity);

 private:
  void TermToStringImpl(TermId id, std::string* out) const;

  /// Keeps the frozen base alive; set iff this universe is an overlay.
  /// Declared first so the layered tables below can point into it.
  std::shared_ptr<const Universe> base_;
  SymbolTable symbols_;
  PredicateTable predicates_;
  /// Shared with every overlay of this universe (and with its base).
  std::shared_ptr<TermArena> terms_;
  /// Atomic because overlay construction snapshots it while the root may be
  /// minting fresh variables on another connection's parse.
  std::atomic<uint64_t> fresh_counter_{0};
};

}  // namespace magic

#endif  // MAGIC_AST_UNIVERSE_H_
