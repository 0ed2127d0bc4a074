#ifndef MAGIC_CORE_REWRITE_COMMON_H_
#define MAGIC_CORE_REWRITE_COMMON_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "core/adorn.h"

namespace magic {

/// How aggressively magic/counting guard literals are pruned.
///
///   kFull   — keep every guard the basic transformation inserts
///             (the form Theorem 4.1 is proved for).
///   kProp42 — drop magic_q when another magic_p in the same body has
///             p => q in the sip's derived precedence (Proposition 4.2).
///             This reproduces the paper's displayed programs exactly.
///   kPhOnly — keep only the guard corresponding to the head node p_h
///             (Proposition 4.3, the form modern systems implement).
enum class GuardMode {
  kFull,
  kProp42,
  kPhOnly,
};

/// Instructions for building the seed fact(s) from a concrete query
/// (Section 4: the seed is not part of P^mg; it is instantiated per query).
struct SeedTemplate {
  PredId pred = kInvalidPred;
  /// Counting seeds carry three leading zero indices: cnt_q(0,0,0,c-bar).
  bool counting = false;
};

/// A rewritten program plus everything the engine needs to seed it and read
/// answers back out.
struct RewrittenProgram {
  Program program;
  /// The predicate holding the query's answers (p^a or p_ind^a).
  PredId answer_pred = kInvalidPred;
  /// 0, or 3 for counting-rewritten programs. Counting answers are the rows
  /// whose index fields are all zero (the seed's level).
  uint32_t answer_index_fields = 0;
  /// For each original query position: the column of answer_pred holding it
  /// (offset already includes the index fields), or -1 if the semijoin
  /// optimization dropped that (bound) position.
  std::vector<int> answer_positions;
  std::optional<SeedTemplate> seed;
  /// adorned predicate -> its magic/cnt predicate.
  std::unordered_map<PredId, PredId> magic_of;
};

/// Instantiates the seed fact(s) for `query` (empty if the rewrite needed no
/// seed, i.e. the query had no bound arguments).
std::vector<Fact> MakeSeeds(const RewrittenProgram& rewritten,
                            const Query& query, const Universe& u);

// -- Helpers shared by the rewriting algorithms -----------------------------

/// Argument terms of `lit` at the positions bound in `adornment`.
std::vector<TermId> BoundArgs(const Literal& lit, const Adornment& adornment);

/// The adornment recorded for `pred` (empty if it is not an adorned
/// predicate).
const Adornment& PredAdornment(const Universe& u, PredId pred);

/// True if `pred` is an adorned derived predicate with >= 1 bound argument
/// (the predicates that get magic/counting counterparts).
bool IsBoundAdorned(const Universe& u, PredId pred);

/// Declares (once) the magic predicate for adorned `pred`:
/// name magic_<name>, arity = #bound, kind kMagic. Uses `cache` to
/// deduplicate across calls.
PredId GetOrCreateMagicPred(Universe& u, PredId pred,
                            std::unordered_map<PredId, PredId>* cache);

/// The transitive "p => q" relation induced by a sip's arcs over body
/// occurrences and the head node (Proposition 4.2). Returned as a matrix
/// indexed by occurrence + 1 (index 0 is the head node p_h).
std::vector<std::vector<bool>> SipPrecedes(const SipGraph& sip,
                                           size_t body_size);

/// Decides whether `candidate` (a body occurrence) keeps its magic/cnt guard
/// literal given the guard mode, the sip's precedence closure, and the
/// `holders` already contributing a magic/cnt literal to the same rule body
/// (kSipHead for the head node). Implements Propositions 4.2/4.3.
bool WantGuard(GuardMode mode, const std::vector<std::vector<bool>>& precedes,
               const std::vector<int>& holders, int candidate);

}  // namespace magic

#endif  // MAGIC_CORE_REWRITE_COMMON_H_
