#include "ast/program.h"

#include <algorithm>

namespace magic {

std::vector<int> Program::RulesFor(PredId pred) const {
  std::vector<int> result;
  for (int i = 0; i < static_cast<int>(rules_.size()); ++i) {
    if (rules_[i].head.pred == pred) result.push_back(i);
  }
  return result;
}

std::vector<PredId> Program::HeadPredicates() const {
  std::vector<PredId> result;
  for (const Rule& rule : rules_) {
    if (std::find(result.begin(), result.end(), rule.head.pred) ==
        result.end()) {
      result.push_back(rule.head.pred);
    }
  }
  return result;
}

bool Program::IsHeadPredicate(PredId pred) const {
  for (const Rule& rule : rules_) {
    if (rule.head.pred == pred) return true;
  }
  return false;
}

std::vector<PredId> Program::AllPredicates() const {
  std::vector<PredId> result;
  auto add = [&result](PredId p) {
    if (std::find(result.begin(), result.end(), p) == result.end()) {
      result.push_back(p);
    }
  };
  for (const Rule& rule : rules_) {
    add(rule.head.pred);
    for (const Literal& lit : rule.body) add(lit.pred);
  }
  return result;
}

std::vector<SymbolId> LiteralVariables(const Universe& u, const Literal& lit) {
  std::vector<SymbolId> vars;
  AppendLiteralVariables(u, lit, &vars);
  return vars;
}

void AppendLiteralVariables(const Universe& u, const Literal& lit,
                            std::vector<SymbolId>* out) {
  for (TermId arg : lit.args) {
    u.terms().AppendVariables(arg, out);
  }
}

bool LiteralIsGround(const Universe& u, const Literal& lit) {
  for (TermId arg : lit.args) {
    if (!u.terms().IsGround(arg)) return false;
  }
  return true;
}

Adornment QueryAdornment(const Universe& u, const Query& query) {
  Adornment a = Adornment::AllFree(query.goal.args.size());
  for (size_t i = 0; i < query.goal.args.size(); ++i) {
    if (u.terms().IsGround(query.goal.args[i])) a.set_bound(i);
  }
  return a;
}

std::vector<TermId> QueryBoundArgs(const Universe& u, const Query& query) {
  std::vector<TermId> result;
  for (TermId arg : query.goal.args) {
    if (u.terms().IsGround(arg)) result.push_back(arg);
  }
  return result;
}

std::vector<int> QueryFreePositions(const Universe& u, const Query& query) {
  std::vector<int> result;
  for (int i = 0; i < static_cast<int>(query.goal.args.size()); ++i) {
    if (!u.terms().IsGround(query.goal.args[i])) result.push_back(i);
  }
  return result;
}

std::vector<int> QueryArgPattern(const Universe& u, const Query& query) {
  const std::vector<TermId>& args = query.goal.args;
  std::vector<int> result;
  result.reserve(args.size());
  for (TermId arg : args) {
    result.push_back(u.terms().IsGround(arg)
                         ? kGroundArg
                         : static_cast<int>(
                               std::find(args.begin(), args.end(), arg) -
                               args.begin()));
  }
  return result;
}

Status CheckQueryArgs(const Universe& u, const Query& query) {
  for (TermId arg : query.goal.args) {
    if (!u.terms().IsGround(arg) &&
        u.terms().Get(arg).kind != TermKind::kVariable) {
      return Status::InvalidArgument(
          "goal argument " + u.TermToString(arg) +
          " is neither ground nor a plain variable");
    }
  }
  return Status::OK();
}

}  // namespace magic
