#include "core/supplementary.h"

#include <algorithm>
#include <string>

#include "util/check.h"

namespace magic {

namespace {

bool ContainsSym(const std::vector<SymbolId>& vars, SymbolId v) {
  return std::find(vars.begin(), vars.end(), v) != vars.end();
}

}  // namespace

Result<RewrittenProgram> SupplementaryMagicRewrite(
    const AdornedProgram& adorned, const SupMagicOptions& options) {
  const auto& universe = adorned.program.universe();
  Universe& u = *universe;
  RewrittenProgram out;
  out.program = Program(universe);
  out.answer_pred = adorned.query_pred;
  out.answer_index_fields = 0;
  out.answer_positions.resize(adorned.query.goal.args.size());
  for (size_t i = 0; i < out.answer_positions.size(); ++i) {
    out.answer_positions[i] = static_cast<int>(i);
  }

  for (size_t ri = 0; ri < adorned.program.rules().size(); ++ri) {
    const Rule& rule = adorned.program.rules()[ri];
    MAGIC_CHECK_MSG(rule.sip.has_value(), "adorned rules must carry sips");
    const SipGraph& sip = *rule.sip;
    const size_t n = rule.body.size();
    const Adornment head_ad = PredAdornment(u, rule.head.pred);  // copy: Declare below reallocates
    const bool head_has_magic = IsBoundAdorned(u, rule.head.pred);
    std::vector<TermId> head_bound_args = BoundArgs(rule.head, head_ad);

    // m_last: 1-based position of the last occurrence with an incoming arc.
    size_t m_last = 0;
    for (size_t occ = 0; occ < n; ++occ) {
      if (sip.HasArcInto(static_cast<int>(occ))) m_last = occ + 1;
    }

    // Variables needed at or after position j (1-based): vars of the head
    // plus vars of theta_k for k >= j. Used to trim the phi_j.
    std::vector<std::vector<SymbolId>> needed_from(n + 2);
    {
      std::vector<SymbolId> acc = LiteralVariables(u, rule.head);
      needed_from[n + 1] = acc;
      for (size_t j = n; j >= 1; --j) {
        AppendLiteralVariables(u, rule.body[j - 1], &acc);
        needed_from[j] = acc;
      }
    }

    // phi_j for j = 1..m_last, in deterministic first-occurrence order.
    std::vector<std::vector<SymbolId>> phi(m_last + 1);
    if (m_last >= 1) {
      std::vector<SymbolId> raw;
      for (TermId arg : head_bound_args) u.terms().AppendVariables(arg, &raw);
      for (size_t j = 1; j <= m_last; ++j) {
        if (j >= 2) {
          AppendLiteralVariables(u, rule.body[j - 2], &raw);
        }
        if (options.trim_variables) {
          for (SymbolId v : raw) {
            if (ContainsSym(needed_from[j], v)) phi[j].push_back(v);
          }
        } else {
          phi[j] = raw;
        }
      }
    }

    // Supplementary predicates (declared lazily; sup_1 may be inlined away).
    std::vector<PredId> sup_pred(m_last + 1, kInvalidPred);
    auto get_sup_pred = [&](size_t j) -> PredId {
      if (sup_pred[j] != kInvalidPred) return sup_pred[j];
      std::string name = "supmagic_" + std::to_string(ri + 1) + "_" +
                         std::to_string(j);
      SymbolId sym =
          u.UniquePredicateName(name, static_cast<uint32_t>(phi[j].size()));
      PredId id = u.predicates().Declare(
          sym, static_cast<uint32_t>(phi[j].size()), PredKind::kSupMagic);
      u.predicates().mutable_info(id).parent = rule.head.pred;
      sup_pred[j] = id;
      return id;
    };
    auto sup_literal = [&](size_t j) -> Literal {
      std::vector<TermId> args;
      for (SymbolId v : phi[j]) args.push_back(u.terms().MakeVariable(v));
      return Literal{get_sup_pred(j), std::move(args)};
    };
    // The literal standing for the prefix join before position j; for j == 1
    // this is magic_p^a itself when inlining (or nothing for a free head).
    auto prefix_literal = [&](size_t j) -> std::optional<Literal> {
      if (j == 1 && options.inline_first_supplementary) {
        if (!head_has_magic) return std::nullopt;
        PredId head_magic =
            GetOrCreateMagicPred(u, rule.head.pred, &out.magic_of);
        return Literal{head_magic, head_bound_args};
      }
      return sup_literal(j);
    };

    // Supplementary rules.
    for (size_t j = 1; j <= m_last; ++j) {
      if (j == 1) {
        if (options.inline_first_supplementary) continue;
        Rule sup_rule;
        sup_rule.head = sup_literal(1);
        if (head_has_magic) {
          PredId head_magic =
              GetOrCreateMagicPred(u, rule.head.pred, &out.magic_of);
          sup_rule.body.push_back(Literal{head_magic, head_bound_args});
        }
        sup_rule.provenance = {RuleOrigin::kSupplementary,
                               static_cast<int>(ri), 1};
        out.program.AddRule(std::move(sup_rule));
        continue;
      }
      Rule sup_rule;
      sup_rule.head = sup_literal(j);
      if (std::optional<Literal> prev = prefix_literal(j - 1)) {
        sup_rule.body.push_back(std::move(*prev));
      }
      sup_rule.body.push_back(rule.body[j - 2]);
      sup_rule.provenance = {RuleOrigin::kSupplementary, static_cast<int>(ri),
                             static_cast<int>(j)};
      out.program.AddRule(std::move(sup_rule));
    }

    // Magic rules: magic_q^{a_i}(theta_i^b) :- supmagic_i(phi_i).
    for (size_t occ = 0; occ < n; ++occ) {
      const Literal& target = rule.body[occ];
      if (!IsBoundAdorned(u, target.pred)) continue;
      if (!sip.HasArcInto(static_cast<int>(occ))) continue;
      PredId magic_pred = GetOrCreateMagicPred(u, target.pred, &out.magic_of);
      Rule magic_rule;
      magic_rule.head =
          Literal{magic_pred, BoundArgs(target, PredAdornment(u, target.pred))};
      if (std::optional<Literal> prefix = prefix_literal(occ + 1)) {
        magic_rule.body.push_back(std::move(*prefix));
      }
      magic_rule.provenance = {RuleOrigin::kMagicRule, static_cast<int>(ri),
                               static_cast<int>(occ)};
      out.program.AddRule(std::move(magic_rule));
    }

    // Modified rule: p^a(chi) :- supmagic_m(phi_m), theta_m, ..., theta_n.
    Rule modified;
    modified.head = rule.head;
    modified.provenance = {RuleOrigin::kModifiedRule, static_cast<int>(ri),
                           -1};
    if (m_last == 0) {
      if (head_has_magic) {
        PredId head_magic =
            GetOrCreateMagicPred(u, rule.head.pred, &out.magic_of);
        modified.body.push_back(Literal{head_magic, head_bound_args});
      }
      for (const Literal& lit : rule.body) modified.body.push_back(lit);
    } else {
      if (std::optional<Literal> prefix = prefix_literal(m_last)) {
        modified.body.push_back(std::move(*prefix));
      }
      for (size_t j = m_last; j <= n; ++j) {
        modified.body.push_back(rule.body[j - 1]);
      }
    }
    out.program.AddRule(std::move(modified));
  }

  if (adorned.query_adornment.bound_count() > 0) {
    SeedTemplate seed;
    seed.pred = GetOrCreateMagicPred(u, adorned.query_pred, &out.magic_of);
    seed.counting = false;
    out.seed = seed;
  }
  return out;
}

}  // namespace magic
