#include "eval/matcher.h"

#include <optional>

#include "util/check.h"

namespace magic {
namespace {

// Affine arithmetic wraps in two's complement: it is done in uint64_t,
// where overflow is defined, and cast back.

/// mul * value + add.
int64_t AffineValue(int64_t mul, int64_t value, int64_t add) {
  return static_cast<int64_t>(static_cast<uint64_t>(mul) *
                                  static_cast<uint64_t>(value) +
                              static_cast<uint64_t>(add));
}

/// The value v with mul * v + add == ground, or nullopt when ground - add
/// is not a multiple of mul.
std::optional<int64_t> AffineSolve(int64_t mul, int64_t add, int64_t ground) {
  const uint64_t delta =
      static_cast<uint64_t>(ground) - static_cast<uint64_t>(add);
  // INT64_MIN / -1 overflows; negating in uint64_t does not.
  if (mul == -1) return static_cast<int64_t>(uint64_t{0} - delta);
  const int64_t signed_delta = static_cast<int64_t>(delta);
  if (signed_delta % mul != 0) return std::nullopt;
  return signed_delta / mul;
}

}  // namespace

// Get returns a view by value whose child span points into the arena's
// never-moving child array, so it stays valid while the functions below
// intern new terms (u.Integer, MakeCompound) on the way down.

bool MatchTerm(const Universe& u, TermId pattern, TermId ground,
               Substitution* subst) {
  const TermView p = u.terms().Get(pattern);
  if (p.ground) {
    // Hash-consing makes ground equality an id comparison.
    return pattern == ground;
  }
  switch (p.kind) {
    case TermKind::kVariable: {
      TermId bound = subst->Lookup(p.symbol);
      if (bound != kInvalidTerm) return bound == ground;
      subst->Bind(p.symbol, ground);
      return true;
    }
    case TermKind::kCompound: {
      const TermView g = u.terms().Get(ground);
      if (g.kind != TermKind::kCompound || g.symbol != p.symbol ||
          g.children.size() != p.children.size()) {
        return false;
      }
      for (size_t i = 0; i < p.children.size(); ++i) {
        if (!MatchTerm(u, p.children[i], g.children[i], subst)) return false;
      }
      return true;
    }
    case TermKind::kAffine: {
      const TermView g = u.terms().Get(ground);
      if (g.kind != TermKind::kInteger) return false;
      const int64_t ground_value = g.value;
      const int64_t mul = p.mul;
      const int64_t add = p.add;
      const SymbolId var = u.terms().Get(p.children[0]).symbol;
      TermId bound = subst->Lookup(var);
      if (bound != kInvalidTerm) {
        const TermView b = u.terms().Get(bound);
        return b.kind == TermKind::kInteger &&
               AffineValue(mul, b.value, add) == ground_value;
      }
      const std::optional<int64_t> solved =
          AffineSolve(mul, add, ground_value);
      if (!solved.has_value()) return false;
      TermId binding = u.Integer(*solved);  // may reallocate the arena
      subst->Bind(var, binding);
      return true;
    }
    default:
      MAGIC_CHECK_MSG(false, "non-ground constant/integer term");
      return false;
  }
}

TermId SubstituteGround(const Universe& u, TermId pattern,
                        const Substitution& subst) {
  const TermView p = u.terms().Get(pattern);
  if (p.ground) return pattern;
  switch (p.kind) {
    case TermKind::kVariable:
      return subst.Lookup(p.symbol);
    case TermKind::kCompound: {
      std::vector<TermId> children;
      children.reserve(p.children.size());
      for (TermId child : p.children) {
        TermId sub = SubstituteGround(u, child, subst);
        if (sub == kInvalidTerm) return kInvalidTerm;
        children.push_back(sub);
      }
      return u.terms().MakeCompound(p.symbol, children);
    }
    case TermKind::kAffine: {
      const int64_t mul = p.mul;
      const int64_t add = p.add;
      const SymbolId var = u.terms().Get(p.children[0]).symbol;
      TermId bound = subst.Lookup(var);
      if (bound == kInvalidTerm) return kInvalidTerm;
      const TermView b = u.terms().Get(bound);
      if (b.kind != TermKind::kInteger) return kInvalidTerm;
      const int64_t value = b.value;
      return u.Integer(AffineValue(mul, value, add));
    }
    default:
      return kInvalidTerm;
  }
}

namespace {

/// Looks up a variable's slot through the frame's compile-time slot map.
/// Every variable appearing in a rule gets a slot at JoinProgram compile
/// time, so a missing entry is a compiler bug, not a run-time condition.
inline int SlotOf(const SlotFrame& f, SymbolId var) {
  auto it = f.slots->find(var);
  MAGIC_CHECK_MSG(it != f.slots->end(), "variable with no compiled slot");
  return it->second;
}

inline void BindSlot(const SlotFrame& f, int slot, TermId ground) {
  f.frame[slot] = ground;
  f.trail->push_back(slot);
}

}  // namespace

bool MatchTermSlots(const Universe& u, TermId pattern, TermId ground,
                    const SlotFrame& f) {
  const TermView p = u.terms().Get(pattern);
  if (p.ground) return pattern == ground;
  switch (p.kind) {
    case TermKind::kVariable: {
      const int slot = SlotOf(f, p.symbol);
      TermId bound = f.frame[slot];
      if (bound != kInvalidTerm) return bound == ground;
      BindSlot(f, slot, ground);
      return true;
    }
    case TermKind::kCompound: {
      const TermView g = u.terms().Get(ground);
      if (g.kind != TermKind::kCompound || g.symbol != p.symbol ||
          g.children.size() != p.children.size()) {
        return false;
      }
      for (size_t i = 0; i < p.children.size(); ++i) {
        if (!MatchTermSlots(u, p.children[i], g.children[i], f)) return false;
      }
      return true;
    }
    case TermKind::kAffine: {
      const TermView g = u.terms().Get(ground);
      if (g.kind != TermKind::kInteger) return false;
      const int64_t ground_value = g.value;
      const int64_t mul = p.mul;
      const int64_t add = p.add;
      const int slot = SlotOf(f, u.terms().Get(p.children[0]).symbol);
      TermId bound = f.frame[slot];
      if (bound != kInvalidTerm) {
        const TermView b = u.terms().Get(bound);
        return b.kind == TermKind::kInteger &&
               AffineValue(mul, b.value, add) == ground_value;
      }
      const std::optional<int64_t> solved =
          AffineSolve(mul, add, ground_value);
      if (!solved.has_value()) return false;
      TermId binding = u.Integer(*solved);  // may reallocate the arena
      BindSlot(f, slot, binding);
      return true;
    }
    default:
      MAGIC_CHECK_MSG(false, "non-ground constant/integer term");
      return false;
  }
}

TermId SubstituteGroundSlots(const Universe& u, TermId pattern,
                             const SlotFrame& f) {
  const TermView p = u.terms().Get(pattern);
  if (p.ground) return pattern;
  switch (p.kind) {
    case TermKind::kVariable:
      return f.frame[SlotOf(f, p.symbol)];
    case TermKind::kCompound: {
      std::vector<TermId> children;
      children.reserve(p.children.size());
      for (TermId child : p.children) {
        TermId sub = SubstituteGroundSlots(u, child, f);
        if (sub == kInvalidTerm) return kInvalidTerm;
        children.push_back(sub);
      }
      return u.terms().MakeCompound(p.symbol, children);
    }
    case TermKind::kAffine: {
      const int64_t mul = p.mul;
      const int64_t add = p.add;
      TermId bound = f.frame[SlotOf(f, u.terms().Get(p.children[0]).symbol)];
      if (bound == kInvalidTerm) return kInvalidTerm;
      const TermView b = u.terms().Get(bound);
      if (b.kind != TermKind::kInteger) return kInvalidTerm;
      const int64_t value = b.value;
      return u.Integer(AffineValue(mul, value, add));
    }
    default:
      return kInvalidTerm;
  }
}

}  // namespace magic
