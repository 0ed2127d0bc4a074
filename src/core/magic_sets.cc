#include "core/magic_sets.h"

#include <algorithm>

#include "util/check.h"

namespace magic {

Result<RewrittenProgram> MagicSetsRewrite(const AdornedProgram& adorned,
                                          const MagicOptions& options) {
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

  // Pass 1: magic rules (and label rules for multi-arc occurrences).
  for (size_t ri = 0; ri < adorned.program.rules().size(); ++ri) {
    const Rule& rule = adorned.program.rules()[ri];
    MAGIC_CHECK_MSG(rule.sip.has_value(), "adorned rules must carry sips");
    const SipGraph& sip = *rule.sip;
    std::vector<std::vector<bool>> precedes =
        SipPrecedes(sip, rule.body.size());
    const Adornment head_ad = PredAdornment(u, rule.head.pred);  // copy: Declare below reallocates
    const bool head_has_magic = IsBoundAdorned(u, rule.head.pred);
    std::vector<TermId> head_bound_args = BoundArgs(rule.head, head_ad);

    // Builds the N-part of a magic/label rule body for one arc.
    auto build_tail_body = [&](const SipArc& arc) -> std::vector<Literal> {
      std::vector<Literal> body;
      std::vector<int> members = arc.tail;
      std::sort(members.begin(), members.end());  // kSipHead (-1) first
      std::vector<int> holders;
      for (int member : members) {
        if (member == kSipHead) {
          MAGIC_CHECK_MSG(head_has_magic,
                          "sip tail contains p_h but the head has no bound "
                          "arguments");
          PredId head_magic =
              GetOrCreateMagicPred(u, rule.head.pred, &out.magic_of);
          body.push_back(Literal{head_magic, head_bound_args});
          holders.push_back(kSipHead);
          continue;
        }
        const Literal& qlit = rule.body[member];
        if (IsBoundAdorned(u, qlit.pred) &&
            WantGuard(options.guard_mode, precedes, holders, member)) {
          PredId guard = GetOrCreateMagicPred(u, qlit.pred, &out.magic_of);
          body.push_back(
              Literal{guard, BoundArgs(qlit, PredAdornment(u, qlit.pred))});
          holders.push_back(member);
        }
        body.push_back(qlit);
      }
      return body;
    };

    for (size_t occ = 0; occ < rule.body.size(); ++occ) {
      const Literal& target = rule.body[occ];
      if (!IsBoundAdorned(u, target.pred)) continue;
      std::vector<int> arcs = sip.ArcsInto(static_cast<int>(occ));
      if (arcs.empty()) continue;
      PredId magic_pred = GetOrCreateMagicPred(u, target.pred, &out.magic_of);
      std::vector<TermId> magic_args =
          BoundArgs(target, PredAdornment(u, target.pred));

      Rule magic_rule;
      magic_rule.head = Literal{magic_pred, magic_args};
      magic_rule.provenance = {RuleOrigin::kMagicRule, static_cast<int>(ri),
                               static_cast<int>(occ)};
      if (arcs.size() == 1) {
        magic_rule.body = build_tail_body(sip.arcs[arcs[0]]);
      } else {
        // Several arcs: one label rule per arc, joined by the magic rule
        // (Section 4, "If there are several arcs entering q_i ...").
        // Copy the symbol id: the Declare below reallocates the table.
        const SymbolId target_name = u.predicates().info(target.pred).name;
        for (size_t a = 0; a < arcs.size(); ++a) {
          const SipArc& arc = sip.arcs[arcs[a]];
          std::string name = "label_" + u.symbols().Name(target_name) +
                             "_" + std::to_string(ri + 1) + "_" +
                             std::to_string(occ + 1) + "_" +
                             std::to_string(a + 1);
          SymbolId sym = u.UniquePredicateName(
              name, static_cast<uint32_t>(arc.label.size()));
          PredId label_pred = u.predicates().Declare(
              sym, static_cast<uint32_t>(arc.label.size()), PredKind::kLabel);
          u.predicates().mutable_info(label_pred).parent = target.pred;
          std::vector<TermId> label_args;
          for (SymbolId v : arc.label) {
            label_args.push_back(u.terms().MakeVariable(v));
          }
          Rule label_rule;
          label_rule.head = Literal{label_pred, label_args};
          label_rule.body = build_tail_body(arc);
          label_rule.provenance = {RuleOrigin::kLabelRule,
                                   static_cast<int>(ri),
                                   static_cast<int>(occ)};
          out.program.AddRule(std::move(label_rule));
          magic_rule.body.push_back(Literal{label_pred, label_args});
        }
      }
      out.program.AddRule(std::move(magic_rule));
    }
  }

  // Pass 2: modified rules.
  for (size_t ri = 0; ri < adorned.program.rules().size(); ++ri) {
    const Rule& rule = adorned.program.rules()[ri];
    const SipGraph& sip = *rule.sip;
    std::vector<std::vector<bool>> precedes =
        SipPrecedes(sip, rule.body.size());
    const Adornment head_ad = PredAdornment(u, rule.head.pred);  // copy: Declare below reallocates
    const bool head_has_magic = IsBoundAdorned(u, rule.head.pred);

    Rule modified;
    modified.head = rule.head;
    modified.provenance = {RuleOrigin::kModifiedRule, static_cast<int>(ri),
                           -1};
    std::vector<int> holders;
    if (head_has_magic) {
      PredId head_magic =
          GetOrCreateMagicPred(u, rule.head.pred, &out.magic_of);
      modified.body.push_back(
          Literal{head_magic, BoundArgs(rule.head, head_ad)});
      holders.push_back(kSipHead);
    }
    for (size_t occ = 0; occ < rule.body.size(); ++occ) {
      const Literal& lit = rule.body[occ];
      if (IsBoundAdorned(u, lit.pred) &&
          WantGuard(options.guard_mode, precedes, holders,
                    static_cast<int>(occ))) {
        PredId guard = GetOrCreateMagicPred(u, lit.pred, &out.magic_of);
        modified.body.push_back(
            Literal{guard, BoundArgs(lit, PredAdornment(u, lit.pred))});
        holders.push_back(static_cast<int>(occ));
      }
      modified.body.push_back(lit);
    }
    out.program.AddRule(std::move(modified));
  }

  // Seed.
  if (adorned.query_adornment.bound_count() > 0) {
    SeedTemplate seed;
    seed.pred = GetOrCreateMagicPred(u, adorned.query_pred, &out.magic_of);
    seed.counting = false;
    out.seed = seed;
  }
  return out;
}

}  // namespace magic
