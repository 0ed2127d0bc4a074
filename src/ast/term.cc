#include "ast/term.h"

#include <algorithm>

#include "util/check.h"
#include "util/hash.h"

namespace magic {

TermId TermArena::MakeConstant(SymbolId name) {
  TermView term;
  term.kind = TermKind::kConstant;
  term.ground = true;
  term.symbol = name;
  return Intern(term);
}

TermId TermArena::MakeInteger(int64_t value) {
  TermView term;
  term.kind = TermKind::kInteger;
  term.ground = true;
  term.value = value;
  return Intern(term);
}

TermId TermArena::MakeVariable(SymbolId name) {
  TermView term;
  term.kind = TermKind::kVariable;
  term.ground = false;
  term.symbol = name;
  return Intern(term);
}

TermId TermArena::MakeCompound(SymbolId functor,
                               const std::vector<TermId>& args) {
  TermView term;
  term.kind = TermKind::kCompound;
  term.symbol = functor;
  term.ground = true;
  for (TermId arg : args) {
    term.ground = term.ground && IsGround(arg);
  }
  term.children = args;
  return Intern(term);
}

TermId TermArena::MakeAffine(TermId variable, int64_t mul, int64_t add) {
  MAGIC_CHECK_MSG(mul >= 1, "affine multiplier must be positive");
  MAGIC_CHECK(Get(variable).kind == TermKind::kVariable);
  TermView term;
  term.kind = TermKind::kAffine;
  term.ground = false;
  term.mul = mul;
  term.add = add;
  term.children = {&variable, 1};
  return Intern(term);
}

void TermArena::AppendVariables(TermId id, std::vector<SymbolId>* out) const {
  const TermView term = Get(id);
  if (term.ground) return;
  switch (term.kind) {
    case TermKind::kVariable: {
      if (std::find(out->begin(), out->end(), term.symbol) == out->end()) {
        out->push_back(term.symbol);
      }
      return;
    }
    case TermKind::kCompound:
    case TermKind::kAffine: {
      for (TermId child : term.children) AppendVariables(child, out);
      return;
    }
    default:
      return;
  }
}

bool TermArena::ContainsVariable(TermId id, SymbolId var) const {
  const TermView term = Get(id);
  if (term.ground) return false;
  if (term.kind == TermKind::kVariable) return term.symbol == var;
  for (TermId child : term.children) {
    if (ContainsVariable(child, var)) return true;
  }
  return false;
}

uint64_t TermArena::HashOf(const TermView& term) {
  uint64_t h = HashCombine(static_cast<uint64_t>(term.kind), term.symbol);
  h = HashCombine(h, static_cast<uint64_t>(term.value));
  h = HashCombine(h, static_cast<uint64_t>(term.mul));
  h = HashCombine(h, static_cast<uint64_t>(term.add));
  return HashRange(term.children.begin(), term.children.end(), h);
}

bool TermArena::Equal(const TermView& a, const TermView& b) {
  return a.kind == b.kind && a.symbol == b.symbol && a.value == b.value &&
         a.mul == b.mul && a.add == b.add &&
         std::ranges::equal(a.children, b.children);
}

TermId TermArena::Intern(const TermView& term) {
  MutexLock lock(mutex_);
  const uint64_t h = HashOf(term);
  // Every stored id is below size(), so the probes read it through Get.
  if (std::optional<TermId> found = dedup_.Find(
          h, [&](TermId id) { return Equal(Get(id), term); })) {
    return *found;
  }
  // Side data first, then the record, then the release store of size_
  // that publishes them together.
  uint32_t payload = 0;
  switch (term.kind) {
    case TermKind::kConstant:
    case TermKind::kVariable:
      payload = term.symbol;
      break;
    case TermKind::kInteger:
      payload = integers_.Append(&term.value, 1);
      break;
    case TermKind::kCompound: {
      const CompoundRecord compound{
          term.symbol,
          children_.Append(term.children.data(), term.children.size()),
          static_cast<uint32_t>(term.children.size())};
      payload = compounds_.Append(&compound, 1);
      break;
    }
    case TermKind::kAffine: {
      const AffineRecord affine{term.mul, term.add, term.children[0]};
      payload = affines_.Append(&affine, 1);
      break;
    }
  }
  const size_t n = size_.load(std::memory_order_relaxed);
  const TermRecord record{term.kind, term.ground, payload};
  const uint32_t slot = records_.Append(&record, 1);
  MAGIC_CHECK(slot == n);
  const TermId id =
      dedup_.Add(h, [this](TermId stored) { return HashOf(Get(stored)); });
  MAGIC_CHECK(id == n);
  size_.store(n + 1, std::memory_order_release);
  return id;
}

}  // namespace magic
