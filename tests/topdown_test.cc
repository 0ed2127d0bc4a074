#include "eval/topdown.h"

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "core/magic_sets.h"
#include "engine/query_engine.h"
#include "eval/evaluator.h"
#include "workload/generators.h"

namespace magic {
namespace {

struct Prepared {
  std::shared_ptr<Universe> universe;
  Program program;
  Database db;
  AdornedProgram adorned;
};

Prepared Prepare(const std::string& text) {
  auto parsed = ParseUnit(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  Prepared p{parsed->program.universe(), parsed->program,
             Database(parsed->program.universe()), AdornedProgram{}};
  for (const Fact& fact : parsed->facts) EXPECT_TRUE(p.db.AddFact(fact).ok());
  FullSipStrategy strategy;
  auto adorned = Adorn(parsed->program, *parsed->query, strategy);
  EXPECT_TRUE(adorned.ok()) << adorned.status().ToString();
  p.adorned = std::move(*adorned);
  return p;
}

TEST(TopDownTest, AnswersAncestorQuery) {
  Prepared p = Prepare(R"(
    anc(X,Y) :- par(X,Y).
    anc(X,Y) :- par(X,Z), anc(Z,Y).
    par(a,b). par(b,c). par(x,y).
    ?- anc(a, Y).
  )");
  TopDownResult result = TopDownEngine().Run(p.adorned, p.db);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  auto answers = AnswerProjector::ForDirect(*p.universe, p.adorned.query)
                     .ProjectAll(result.answers.at(p.adorned.query_pred));
  EXPECT_EQ(answers.size(), 2u);  // b and c; the x->y chain is never touched
}

TEST(TopDownTest, GeneratesOnlyReachableSubqueries) {
  Prepared p = Prepare(R"(
    anc(X,Y) :- par(X,Y).
    anc(X,Y) :- par(X,Z), anc(Z,Y).
    par(a,b). par(b,c). par(x,y). par(y,z).
    ?- anc(a, Y).
  )");
  TopDownResult result = TopDownEngine().Run(p.adorned, p.db);
  ASSERT_TRUE(result.status.ok());
  // Subqueries: a, b, c — never x, y, z.
  EXPECT_EQ(result.stats.queries, 3u);
}

TEST(TopDownTest, HandlesFunctionSymbols) {
  Prepared p = Prepare(R"(
    append(V, [], [V]).
    append(V, [W|X], [W|Y]) :- append(V, X, Y).
    reverse([], []).
    reverse([V|X], Y) :- reverse(X, Z), append(V, Z, Y).
    ?- reverse([a,b,c], Y).
  )");
  TopDownResult result = TopDownEngine().Run(p.adorned, p.db);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  auto answers = AnswerProjector::ForDirect(*p.universe, p.adorned.query)
                     .ProjectAll(result.answers.at(p.adorned.query_pred));
  ASSERT_EQ(answers.size(), 1u);  // projected onto the free position Y
  EXPECT_EQ(p.universe->TermToString(answers[0][0]), "[c,b,a]");
}

TEST(TopDownTest, BudgetGuardsDivergence) {
  // Without the par base case being reachable, recursion on cyclic data is
  // fine for top-down with memoization; use a genuinely divergent program
  // (growing terms) to exercise the budget.
  Prepared p = Prepare(R"(
    grow(X, s(Y)) :- grow(X, Y).
    grow(X, z) :- base(X).
    base(a).
    ?- grow(a, Y).
  )");
  EvalOptions options;
  options.max_facts = 200;
  TopDownResult result = TopDownEngine(options).Run(p.adorned, p.db);
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
}

// Theorem 9.1: the bottom-up evaluation of P^mg is sip-optimal — it computes
// exactly the queries (magic facts) and facts (adorned facts) that the
// canonical top-down sip strategy generates, for the same sips.
class SipOptimalityTest : public ::testing::TestWithParam<int> {};

TEST_P(SipOptimalityTest, MagicFactsEqualTopDownQueries) {
  Workload w = MakeAncestorRandom(40, 80, static_cast<uint32_t>(GetParam()));
  FullSipStrategy strategy;
  auto adorned = Adorn(w.program, w.query, strategy);
  ASSERT_TRUE(adorned.ok());
  Universe& u = *w.universe;

  auto gms = MagicSetsRewrite(*adorned);
  ASSERT_TRUE(gms.ok());
  EvalResult bottom_up = Evaluator().Run(
      gms->program, w.db, MakeSeeds(*gms, adorned->query, u));
  ASSERT_TRUE(bottom_up.status.ok());

  TopDownResult top_down = TopDownEngine().Run(*adorned, w.db);
  ASSERT_TRUE(top_down.status.ok());

  for (const auto& [adorned_pred, magic_pred] : gms->magic_of) {
    // Magic facts == top-down query tuples.
    auto magic_it = bottom_up.idb.find(magic_pred);
    const Relation* magic_rel =
        magic_it == bottom_up.idb.end() ? nullptr : &magic_it->second;
    auto query_it = top_down.queries.find(adorned_pred);
    ASSERT_NE(query_it, top_down.queries.end());
    size_t magic_count = magic_rel == nullptr ? 0 : magic_rel->size();
    EXPECT_EQ(magic_count, query_it->second.size());
    if (magic_rel != nullptr) {
      for (size_t row = 0; row < magic_rel->size(); ++row) {
        std::span<const TermId> tuple = magic_rel->Row(row);
        EXPECT_TRUE(query_it->second.Contains(tuple));
      }
    }
    // Adorned facts == top-down answers.
    auto fact_it = bottom_up.idb.find(adorned_pred);
    const Relation* fact_rel =
        fact_it == bottom_up.idb.end() ? nullptr : &fact_it->second;
    auto answer_it = top_down.answers.find(adorned_pred);
    ASSERT_NE(answer_it, top_down.answers.end());
    size_t fact_count = fact_rel == nullptr ? 0 : fact_rel->size();
    EXPECT_EQ(fact_count, answer_it->second.size());
    if (fact_rel != nullptr) {
      for (size_t row = 0; row < fact_rel->size(); ++row) {
        EXPECT_TRUE(answer_it->second.Contains(fact_rel->Row(row)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, SipOptimalityTest,
                         ::testing::Range(1, 9));

TEST(SipOptimalityTest, HoldsOnSameGeneration) {
  Workload w = MakeSameGenNonlinear(4, 3);
  FullSipStrategy strategy;
  auto adorned = Adorn(w.program, w.query, strategy);
  ASSERT_TRUE(adorned.ok());
  Universe& u = *w.universe;
  auto gms = MagicSetsRewrite(*adorned);
  ASSERT_TRUE(gms.ok());
  EvalResult bottom_up = Evaluator().Run(
      gms->program, w.db, MakeSeeds(*gms, adorned->query, u));
  TopDownResult top_down = TopDownEngine().Run(*adorned, w.db);
  ASSERT_TRUE(bottom_up.status.ok());
  ASSERT_TRUE(top_down.status.ok());
  for (const auto& [adorned_pred, magic_pred] : gms->magic_of) {
    EXPECT_EQ(bottom_up.FactCount(magic_pred),
              top_down.queries.at(adorned_pred).size());
    EXPECT_EQ(bottom_up.FactCount(adorned_pred),
              top_down.answers.at(adorned_pred).size());
  }
}

}  // namespace
}  // namespace magic
