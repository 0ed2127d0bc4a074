#include "core/sup_counting.h"

#include <algorithm>
#include <string>

#include "util/check.h"

namespace magic {

namespace {

bool ContainsSym(const std::vector<SymbolId>& vars, SymbolId v) {
  return std::find(vars.begin(), vars.end(), v) != vars.end();
}

PredId GetOrCreateIndexedPredLocal(Universe& u, PredId pred,
                                   std::unordered_map<PredId, PredId>* cache) {
  auto it = cache->find(pred);
  if (it != cache->end()) return it->second;
  // Copy: Declare below may reallocate the predicate table.
  const PredicateInfo info = u.predicates().info(pred);
  std::string base = u.symbols().Name(info.name);
  std::string suffix = "_" + info.adornment.ToString();
  if (base.size() > suffix.size() &&
      base.compare(base.size() - suffix.size(), suffix.size(), suffix) == 0) {
    base = base.substr(0, base.size() - suffix.size()) + "_ind" + suffix;
  } else {
    base += "_ind";
  }
  uint32_t arity = info.arity + 3;
  SymbolId sym = u.UniquePredicateName(base, arity);
  PredId id = u.predicates().Declare(sym, arity, PredKind::kDerived);
  PredicateInfo& pinfo = u.predicates().mutable_info(id);
  pinfo.parent = pred;
  pinfo.adornment = info.adornment;
  pinfo.index_fields = 3;
  cache->emplace(pred, id);
  return id;
}

PredId GetOrCreateCntPredLocal(Universe& u, PredId pred, PredId indexed,
                               std::unordered_map<PredId, PredId>* cache) {
  auto it = cache->find(pred);
  if (it != cache->end()) return it->second;
  // Copy: Declare below may reallocate the predicate table.
  const PredicateInfo indexed_info = u.predicates().info(indexed);
  std::string name = "cnt_" + u.symbols().Name(indexed_info.name);
  uint32_t arity =
      3 + static_cast<uint32_t>(indexed_info.adornment.bound_count());
  SymbolId sym = u.UniquePredicateName(name, arity);
  PredId id = u.predicates().Declare(sym, arity, PredKind::kCounting);
  PredicateInfo& pinfo = u.predicates().mutable_info(id);
  pinfo.parent = pred;
  pinfo.adornment = indexed_info.adornment;
  pinfo.index_fields = 3;
  cache->emplace(pred, id);
  return id;
}

}  // namespace

Result<CountingProgram> SupplementaryCountingRewrite(
    const AdornedProgram& adorned, const SupCountingOptions& options) {
  const auto& universe = adorned.program.universe();
  Universe& u = *universe;

  CountingProgram out;
  out.adorned = adorned;
  out.rewritten.program = Program(universe);
  out.m = static_cast<int>(adorned.program.rules().size());
  out.t = 0;
  for (const Rule& rule : adorned.program.rules()) {
    out.t = std::max(out.t, static_cast<int>(rule.body.size()));
  }
  if (out.t == 0) out.t = 1;

  std::unordered_map<PredId, PredId>& cnt_of = out.rewritten.magic_of;

  if (adorned.query_adornment.bound_count() == 0) {
    return Status::InvalidArgument(
        "counting requires a query with bound arguments");
  }

  for (const auto& [key, pred] : adorned.adorned_preds) {
    if (IsBoundAdorned(u, pred)) {
      PredId indexed = GetOrCreateIndexedPredLocal(u, pred, &out.indexed_of);
      GetOrCreateCntPredLocal(u, pred, indexed, &cnt_of);
      const PredicateInfo& info = u.predicates().info(pred);
      std::vector<int> kept(info.arity);
      for (uint32_t i = 0; i < info.arity; ++i) kept[i] = static_cast<int>(i);
      out.kept_positions[indexed] = std::move(kept);
    }
  }

  auto add_rule = [&](Rule rule, CountingRuleMeta meta) {
    meta.origin = rule.provenance.origin;
    MAGIC_CHECK(meta.body.size() == rule.body.size());
    out.rewritten.program.AddRule(std::move(rule));
    out.meta.push_back(std::move(meta));
  };

  for (size_t ri = 0; ri < adorned.program.rules().size(); ++ri) {
    const Rule& rule = adorned.program.rules()[ri];
    MAGIC_CHECK_MSG(rule.sip.has_value(), "adorned rules must carry sips");
    const SipGraph& sip = *rule.sip;
    const size_t n = rule.body.size();
    const int rule_number = static_cast<int>(ri) + 1;
    const Adornment head_ad = PredAdornment(u, rule.head.pred);  // copy: Declare below reallocates
    const bool head_indexed = IsBoundAdorned(u, rule.head.pred);

    size_t m_last = 0;
    for (size_t occ = 0; occ < n; ++occ) {
      if (sip.HasArcInto(static_cast<int>(occ))) m_last = occ + 1;
    }
    if (m_last > 0 && !head_indexed) {
      return Status::InvalidArgument(
          "supplementary counting cannot encode rule " +
          std::to_string(rule_number) +
          ": body occurrences receive bindings but the head has no bound "
          "arguments to seed the index chain");
    }

    TermId var_i = u.FreshVariable("I");
    TermId var_k = u.FreshVariable("K");
    TermId var_h = u.FreshVariable("H");
    TermId i_plus_1 = u.Affine(var_i, 1, 1);
    TermId k_child = u.Affine(var_k, out.m, rule_number);
    auto h_child = [&](int occ) { return u.Affine(var_h, out.t, occ + 1); };

    auto cnt_of_head_literal = [&]() -> Literal {
      PredId cnt = cnt_of.at(rule.head.pred);
      std::vector<TermId> args = {var_i, var_k, var_h};
      for (TermId arg : BoundArgs(rule.head, head_ad)) args.push_back(arg);
      return Literal{cnt, std::move(args)};
    };
    // Theta_k: the (indexed, if bound-adorned) version of body occurrence k.
    auto body_literal = [&](int occ, CountingLiteralMeta* lm) -> Literal {
      const Literal& lit = rule.body[occ];
      lm->occurrence = occ;
      if (IsBoundAdorned(u, lit.pred)) {
        PredId indexed = out.indexed_of.at(lit.pred);
        std::vector<TermId> args = {i_plus_1, k_child, h_child(occ)};
        for (TermId arg : lit.args) args.push_back(arg);
        return Literal{indexed, std::move(args)};
      }
      return lit;
    };

    // Needed-variable sets for trimming (as in GSMS).
    std::vector<std::vector<SymbolId>> needed_from(n + 2);
    {
      std::vector<SymbolId> acc = LiteralVariables(u, rule.head);
      needed_from[n + 1] = acc;
      for (size_t j = n; j >= 1; --j) {
        AppendLiteralVariables(u, rule.body[j - 1], &acc);
        needed_from[j] = acc;
      }
    }
    std::vector<std::vector<SymbolId>> phi(m_last + 1);
    if (m_last >= 1) {
      std::vector<SymbolId> raw;
      for (TermId arg : BoundArgs(rule.head, head_ad)) {
        u.terms().AppendVariables(arg, &raw);
      }
      for (size_t j = 1; j <= m_last; ++j) {
        if (j >= 2) AppendLiteralVariables(u, rule.body[j - 2], &raw);
        if (options.trim_variables) {
          for (SymbolId v : raw) {
            if (ContainsSym(needed_from[j], v)) phi[j].push_back(v);
          }
        } else {
          phi[j] = raw;
        }
      }
    }

    std::vector<PredId> sup_pred(m_last + 1, kInvalidPred);
    auto get_sup_pred = [&](size_t j) -> PredId {
      if (sup_pred[j] != kInvalidPred) return sup_pred[j];
      std::string name =
          "supcnt_" + std::to_string(ri + 1) + "_" + std::to_string(j);
      uint32_t arity = 3 + static_cast<uint32_t>(phi[j].size());
      SymbolId sym = u.UniquePredicateName(name, arity);
      PredId id = u.predicates().Declare(sym, arity, PredKind::kSupCounting);
      PredicateInfo& pinfo = u.predicates().mutable_info(id);
      pinfo.parent = rule.head.pred;
      pinfo.index_fields = 3;
      sup_pred[j] = id;
      return id;
    };
    auto sup_literal = [&](size_t j) -> Literal {
      std::vector<TermId> args = {var_i, var_k, var_h};
      for (SymbolId v : phi[j]) args.push_back(u.terms().MakeVariable(v));
      return Literal{get_sup_pred(j), std::move(args)};
    };
    auto prefix_literal = [&](size_t j, CountingLiteralMeta* lm) -> Literal {
      if (j == 1 && options.inline_first_supplementary) {
        lm->is_cnt_of_head = true;
        return cnt_of_head_literal();
      }
      lm->is_supp = true;
      return sup_literal(j);
    };

    // Supplementary counting rules.
    for (size_t j = 1; j <= m_last; ++j) {
      if (j == 1) {
        if (options.inline_first_supplementary) continue;
        Rule sup_rule;
        CountingRuleMeta meta;
        meta.adorned_rule = static_cast<int>(ri);
        meta.sup_index = 1;
        sup_rule.head = sup_literal(1);
        sup_rule.body.push_back(cnt_of_head_literal());
        CountingLiteralMeta lm;
        lm.is_cnt_of_head = true;
        meta.body.push_back(lm);
        sup_rule.provenance = {RuleOrigin::kSupplementary,
                               static_cast<int>(ri), 1};
        add_rule(std::move(sup_rule), std::move(meta));
        continue;
      }
      Rule sup_rule;
      CountingRuleMeta meta;
      meta.adorned_rule = static_cast<int>(ri);
      meta.sup_index = static_cast<int>(j);
      sup_rule.head = sup_literal(j);
      CountingLiteralMeta prefix_meta;
      sup_rule.body.push_back(prefix_literal(j - 1, &prefix_meta));
      meta.body.push_back(prefix_meta);
      CountingLiteralMeta body_meta;
      sup_rule.body.push_back(
          body_literal(static_cast<int>(j) - 2, &body_meta));
      meta.body.push_back(body_meta);
      sup_rule.provenance = {RuleOrigin::kSupplementary, static_cast<int>(ri),
                             static_cast<int>(j)};
      add_rule(std::move(sup_rule), std::move(meta));
    }

    // Counting rules: cnt_q(I+1, K*m+i, H*t+p, theta_p^b) :- supcnt_p.
    for (size_t occ = 0; occ < n; ++occ) {
      const Literal& target = rule.body[occ];
      if (!IsBoundAdorned(u, target.pred)) continue;
      if (!sip.HasArcInto(static_cast<int>(occ))) continue;
      Rule cnt_rule;
      CountingRuleMeta meta;
      meta.adorned_rule = static_cast<int>(ri);
      meta.target_occurrence = static_cast<int>(occ);
      PredId cnt = cnt_of.at(target.pred);
      std::vector<TermId> head_args = {i_plus_1, k_child,
                                       h_child(static_cast<int>(occ))};
      for (TermId arg : BoundArgs(target, PredAdornment(u, target.pred))) {
        head_args.push_back(arg);
      }
      cnt_rule.head = Literal{cnt, std::move(head_args)};
      CountingLiteralMeta prefix_meta;
      cnt_rule.body.push_back(prefix_literal(occ + 1, &prefix_meta));
      meta.body.push_back(prefix_meta);
      cnt_rule.provenance = {RuleOrigin::kMagicRule, static_cast<int>(ri),
                             static_cast<int>(occ)};
      add_rule(std::move(cnt_rule), std::move(meta));
    }

    // Modified rule.
    Rule modified;
    CountingRuleMeta meta;
    meta.adorned_rule = static_cast<int>(ri);
    modified.provenance = {RuleOrigin::kModifiedRule, static_cast<int>(ri),
                           -1};
    if (head_indexed) {
      PredId indexed = out.indexed_of.at(rule.head.pred);
      std::vector<TermId> head_args = {var_i, var_k, var_h};
      for (TermId arg : rule.head.args) head_args.push_back(arg);
      modified.head = Literal{indexed, std::move(head_args)};
    } else {
      modified.head = rule.head;
    }
    if (m_last == 0) {
      if (head_indexed) {
        modified.body.push_back(cnt_of_head_literal());
        CountingLiteralMeta lm;
        lm.is_cnt_of_head = true;
        meta.body.push_back(lm);
      }
      for (size_t occ = 0; occ < n; ++occ) {
        CountingLiteralMeta lm;
        modified.body.push_back(body_literal(static_cast<int>(occ), &lm));
        meta.body.push_back(lm);
      }
    } else {
      CountingLiteralMeta prefix_meta;
      modified.body.push_back(prefix_literal(m_last, &prefix_meta));
      meta.body.push_back(prefix_meta);
      for (size_t occ = m_last - 1; occ < n; ++occ) {
        CountingLiteralMeta lm;
        modified.body.push_back(body_literal(static_cast<int>(occ), &lm));
        meta.body.push_back(lm);
      }
    }
    add_rule(std::move(modified), std::move(meta));
  }

  SeedTemplate seed;
  seed.pred = cnt_of.at(adorned.query_pred);
  seed.counting = true;
  out.rewritten.seed = seed;
  out.rewritten.answer_pred = out.indexed_of.at(adorned.query_pred);
  out.rewritten.answer_index_fields = 3;
  out.rewritten.answer_positions.resize(adorned.query.goal.args.size());
  for (size_t i = 0; i < out.rewritten.answer_positions.size(); ++i) {
    out.rewritten.answer_positions[i] = static_cast<int>(i) + 3;
  }
  return out;
}

}  // namespace magic
