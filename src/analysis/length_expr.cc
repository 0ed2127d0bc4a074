#include "analysis/length_expr.h"

namespace magic {

namespace {

void Accumulate(const Universe& u, TermId term, int64_t sign,
                LengthExpr* expr) {
  const TermView data = u.terms().Get(term);
  switch (data.kind) {
    case TermKind::kConstant:
    case TermKind::kInteger:
      expr->constant += sign;
      return;
    case TermKind::kVariable:
      expr->coeff[data.symbol] += sign;
      return;
    case TermKind::kCompound:
      expr->constant += sign;
      for (TermId child : data.children) Accumulate(u, child, sign, expr);
      return;
    case TermKind::kAffine:
      // Counting indices never appear in the adorned programs the binding
      // graph is built over; treat defensively as unit length.
      expr->constant += sign;
      return;
  }
}

}  // namespace

LengthExpr LengthExpr::OfTerm(const Universe& u, TermId term) {
  LengthExpr expr;
  Accumulate(u, term, 1, &expr);
  return expr;
}

LengthExpr& LengthExpr::operator+=(const LengthExpr& other) {
  constant += other.constant;
  for (const auto& [v, c] : other.coeff) {
    coeff[v] += c;
    if (coeff[v] == 0) coeff.erase(v);
  }
  return *this;
}

LengthExpr& LengthExpr::operator-=(const LengthExpr& other) {
  constant -= other.constant;
  for (const auto& [v, c] : other.coeff) {
    coeff[v] -= c;
    if (coeff[v] == 0) coeff.erase(v);
  }
  return *this;
}

std::optional<int64_t> LengthExpr::LowerBound() const {
  int64_t bound = constant;
  for (const auto& [v, c] : coeff) {
    if (c < 0) return std::nullopt;
    bound += c;  // |v| >= 1
  }
  return bound;
}

std::string LengthExpr::ToString(const Universe& u) const {
  std::string out;
  for (const auto& [v, c] : coeff) {
    if (!out.empty()) out += " + ";
    if (c != 1) out += std::to_string(c) + "*";
    out += "|" + u.symbols().Name(v) + "|";
  }
  if (constant != 0 || out.empty()) {
    if (!out.empty()) out += " + ";
    out += std::to_string(constant);
  }
  return out;
}

}  // namespace magic
