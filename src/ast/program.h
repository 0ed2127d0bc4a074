#ifndef MAGIC_AST_PROGRAM_H_
#define MAGIC_AST_PROGRAM_H_

#include <memory>
#include <optional>
#include <vector>

#include "ast/predicate.h"
#include "ast/sip_graph.h"
#include "ast/term.h"
#include "ast/universe.h"
#include "util/status.h"

namespace magic {

/// A predicate occurrence: predicate name applied to argument terms.
struct Literal {
  PredId pred = kInvalidPred;
  std::vector<TermId> args;

  bool operator==(const Literal&) const = default;
};

/// A ground unit of the extensional database (or a seed for a rewritten
/// program).
struct Fact {
  PredId pred = kInvalidPred;
  std::vector<TermId> args;

  bool operator==(const Fact&) const = default;
};

/// Where a rewritten rule came from; used by tests, the printer's
/// annotations, and the Section 8 semijoin optimizer.
enum class RuleOrigin : uint8_t {
  kOriginal,      // user program / adorned program rule
  kMagicRule,     // defines magic_p^a or cnt_p_ind^a
  kModifiedRule,  // guarded version of an adorned rule
  kSupplementary, // defines supmagic/supcnt
  kLabelRule,     // defines a label predicate (multi-arc sips)
};

struct RuleProvenance {
  RuleOrigin origin = RuleOrigin::kOriginal;
  /// Index of the adorned rule this rule was generated from, or -1.
  int adorned_rule = -1;
  /// For magic/counting rules: the (sip-ordered) body occurrence whose
  /// subqueries this rule generates, or -1.
  int occurrence = -1;
};

/// A Horn clause `head :- body` (empty body = unconditional rule).
/// Adorned rules carry the sip that generated them, since the later rewriting
/// stages make further use of it (paper, Section 3).
struct Rule {
  Literal head;
  std::vector<Literal> body;
  std::optional<SipGraph> sip;
  RuleProvenance provenance;
};

/// A single-predicate query `q(c, X)?`. Arguments that are ground terms are
/// the bound arguments.
struct Query {
  Literal goal;
};

/// A finite set of rules over a shared Universe. Facts are deliberately not
/// part of a Program (paper, Section 1.1: all facts live in the database).
class Program {
 public:
  Program() = default;
  explicit Program(std::shared_ptr<Universe> universe)
      : universe_(std::move(universe)) {}

  const std::shared_ptr<Universe>& universe() const { return universe_; }
  Universe& u() const { return *universe_; }

  std::vector<Rule>& rules() { return rules_; }
  const std::vector<Rule>& rules() const { return rules_; }

  int AddRule(Rule rule) {
    rules_.push_back(std::move(rule));
    return static_cast<int>(rules_.size()) - 1;
  }

  /// Indices of the rules whose head predicate is `pred`.
  std::vector<int> RulesFor(PredId pred) const;

  /// Predicates that appear as rule heads in this program (the derived
  /// predicates of this program).
  std::vector<PredId> HeadPredicates() const;

  /// True if `pred` heads at least one rule here.
  bool IsHeadPredicate(PredId pred) const;

  /// All predicates referenced by this program (heads and bodies).
  std::vector<PredId> AllPredicates() const;

 private:
  std::shared_ptr<Universe> universe_;
  std::vector<Rule> rules_;
};

// -- Small helpers shared across modules -----------------------------------

/// Variables of a literal in first-occurrence order.
std::vector<SymbolId> LiteralVariables(const Universe& u, const Literal& lit);

/// Appends the variables of `lit` to `out`, deduplicating.
void AppendLiteralVariables(const Universe& u, const Literal& lit,
                            std::vector<SymbolId>* out);

/// True if every argument of the literal is ground.
bool LiteralIsGround(const Universe& u, const Literal& lit);

/// The adornment induced by a query: positions holding ground terms are
/// bound (paper, Section 3: "precisely the positions bound in the query").
Adornment QueryAdornment(const Universe& u, const Query& query);

/// The ground arguments of the query, in position order (the seed tuple
/// contents c-bar).
std::vector<TermId> QueryBoundArgs(const Universe& u, const Query& query);

/// Positions of the query's free (non-ground) arguments.
std::vector<int> QueryFreePositions(const Universe& u, const Query& query);

/// QueryArgPattern's entry for a ground argument.
inline constexpr int kGroundArg = -1;

/// The shape of the query's goal, one entry per argument: kGroundArg, or
/// the index of the first argument holding the same term. anc(X,X) is
/// {0,0} and anc(X,Y) is {0,1}: a free position whose entry is not its own
/// index repeats a variable, which restricts the answers to tuples that
/// agree on both positions.
std::vector<int> QueryArgPattern(const Universe& u, const Query& query);

/// InvalidArgument unless every goal argument is ground or a plain
/// variable: the shapes QueryArgPattern describes. A non-ground compound
/// such as q(f(X), Y) would need unification against each answer column,
/// which the projection does not do, so such goals are refused rather
/// than answered as if the compound were a free variable.
Status CheckQueryArgs(const Universe& u, const Query& query);

}  // namespace magic

#endif  // MAGIC_AST_PROGRAM_H_
