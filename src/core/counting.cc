#include "core/counting.h"

#include <algorithm>
#include <string>

#include "util/check.h"

namespace magic {

namespace {

/// Declares the indexed version p_ind^a (arity 3 + n) of an adorned pred.
PredId GetOrCreateIndexedPred(Universe& u, PredId pred,
                              std::unordered_map<PredId, PredId>* cache) {
  auto it = cache->find(pred);
  if (it != cache->end()) return it->second;
  // Copy: Declare below may reallocate the predicate table.
  const PredicateInfo info = u.predicates().info(pred);
  // Insert "_ind" before the adornment suffix: sg_bf -> sg_ind_bf.
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

/// Declares cnt_p_ind^a (arity 3 + #bound) for an adorned pred.
PredId GetOrCreateCntPred(Universe& u, PredId pred, PredId indexed,
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

Result<CountingProgram> CountingRewrite(const AdornedProgram& adorned,
                                        const CountingOptions& options) {
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
        "counting requires a query with bound arguments (the indices encode "
        "the path from the seed)");
  }

  // Pre-create indexed/cnt versions for every bound-adorned predicate so
  // body literals can be rewritten uniformly.
  for (const auto& [key, pred] : adorned.adorned_preds) {
    if (IsBoundAdorned(u, pred)) {
      PredId indexed = GetOrCreateIndexedPred(u, pred, &out.indexed_of);
      GetOrCreateCntPred(u, pred, indexed, &cnt_of);
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
    const int rule_number = static_cast<int>(ri) + 1;  // 1-based, as printed
    std::vector<std::vector<bool>> precedes =
        SipPrecedes(sip, rule.body.size());
    const Adornment head_ad = PredAdornment(u, rule.head.pred);  // copy: Declare below reallocates
    const bool head_indexed = IsBoundAdorned(u, rule.head.pred);

    // Fresh index variables for this adorned rule's generated rules.
    TermId var_i = u.FreshVariable("I");
    TermId var_k = u.FreshVariable("K");
    TermId var_h = u.FreshVariable("H");
    TermId i_plus_1 = u.Affine(var_i, 1, 1);
    TermId k_child = u.Affine(var_k, out.m, rule_number);
    auto h_child = [&](int occ) {  // occ is 0-based; positions are 1-based
      return u.Affine(var_h, out.t, occ + 1);
    };

    // cnt_p_ind^a(I, K, H, chi^b) — the head node's counting literal.
    auto cnt_of_head_literal = [&]() -> Literal {
      MAGIC_CHECK_MSG(head_indexed,
                      "sip tail contains p_h but the head has no bound "
                      "arguments");
      PredId cnt = cnt_of.at(rule.head.pred);
      std::vector<TermId> args = {var_i, var_k, var_h};
      for (TermId arg : BoundArgs(rule.head, head_ad)) args.push_back(arg);
      return Literal{cnt, std::move(args)};
    };
    // q_ind^{a_k}(I+1, K*m+i, H*t+pos, theta_k) for an indexed occurrence.
    auto indexed_literal = [&](int occ) -> Literal {
      const Literal& lit = rule.body[occ];
      PredId indexed = out.indexed_of.at(lit.pred);
      std::vector<TermId> args = {i_plus_1, k_child, h_child(occ)};
      for (TermId arg : lit.args) args.push_back(arg);
      return Literal{indexed, std::move(args)};
    };
    auto cnt_guard_literal = [&](int occ) -> Literal {
      const Literal& lit = rule.body[occ];
      PredId cnt = cnt_of.at(lit.pred);
      std::vector<TermId> args = {i_plus_1, k_child, h_child(occ)};
      for (TermId arg : BoundArgs(lit, PredAdornment(u, lit.pred))) {
        args.push_back(arg);
      }
      return Literal{cnt, std::move(args)};
    };

    // Counting rules, one per indexed occurrence with an incoming arc.
    for (size_t occ = 0; occ < rule.body.size(); ++occ) {
      const Literal& target = rule.body[occ];
      if (!IsBoundAdorned(u, target.pred)) continue;
      std::vector<int> arcs = sip.ArcsInto(static_cast<int>(occ));
      if (arcs.empty()) continue;
      // Merge multi-arc tails: the counting rule joins all tails (the
      // label-predicate indirection of GMS is unnecessary because the body
      // literals join directly on the index fields).
      std::vector<int> members;
      for (int arc_idx : arcs) {
        for (int member : sip.arcs[arc_idx].tail) {
          if (std::find(members.begin(), members.end(), member) ==
              members.end()) {
            members.push_back(member);
          }
        }
      }
      std::sort(members.begin(), members.end());

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
      cnt_rule.provenance = {RuleOrigin::kMagicRule, static_cast<int>(ri),
                             static_cast<int>(occ)};

      bool index_vars_bound = false;
      std::vector<int> holders;
      for (int member : members) {
        if (member == kSipHead) {
          cnt_rule.body.push_back(cnt_of_head_literal());
          CountingLiteralMeta lm;
          lm.is_cnt_of_head = true;
          meta.body.push_back(lm);
          holders.push_back(kSipHead);
          index_vars_bound = true;
          continue;
        }
        const Literal& qlit = rule.body[member];
        if (IsBoundAdorned(u, qlit.pred)) {
          if (WantGuard(options.guard_mode, precedes, holders, member)) {
            cnt_rule.body.push_back(cnt_guard_literal(member));
            CountingLiteralMeta lm;
            lm.occurrence = member;
            lm.is_cnt_guard = true;
            meta.body.push_back(lm);
            holders.push_back(member);
          }
          cnt_rule.body.push_back(indexed_literal(member));
          CountingLiteralMeta lm;
          lm.occurrence = member;
          meta.body.push_back(lm);
          index_vars_bound = true;
        } else {
          cnt_rule.body.push_back(qlit);
          CountingLiteralMeta lm;
          lm.occurrence = member;
          meta.body.push_back(lm);
        }
      }
      if (!index_vars_bound) {
        return Status::InvalidArgument(
            "counting cannot encode this sip: the arc into occurrence " +
            std::to_string(occ + 1) + " of rule " +
            std::to_string(rule_number) +
            " binds no index variables (tail has neither p_h nor an indexed "
            "occurrence)");
      }
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
      modified.body.push_back(cnt_of_head_literal());
      CountingLiteralMeta lm;
      lm.is_cnt_of_head = true;
      meta.body.push_back(lm);
    } else {
      modified.head = rule.head;
    }
    for (size_t occ = 0; occ < rule.body.size(); ++occ) {
      const Literal& lit = rule.body[occ];
      if (IsBoundAdorned(u, lit.pred)) {
        if (!head_indexed) {
          return Status::InvalidArgument(
              "counting cannot encode rule " + std::to_string(rule_number) +
              ": an indexed body occurrence under a head without bound "
              "arguments leaves the index variables unbound");
        }
        modified.body.push_back(indexed_literal(static_cast<int>(occ)));
      } else {
        modified.body.push_back(lit);
      }
      CountingLiteralMeta lm;
      lm.occurrence = static_cast<int>(occ);
      meta.body.push_back(lm);
    }
    add_rule(std::move(modified), std::move(meta));
  }

  // Seed and answer bookkeeping.
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
