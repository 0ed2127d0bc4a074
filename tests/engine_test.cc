#include "engine/query_engine.h"

#include <gtest/gtest.h>

#include <set>

#include "ast/parser.h"
#include "core/adorn.h"
#include "core/magic_sets.h"
#include "core/sip_strategies.h"
#include "eval/evaluator.h"
#include "workload/generators.h"

namespace magic {
namespace {

TEST(QueryEngineTest, StrategyNamesAreStable) {
  EXPECT_EQ(StrategyName(Strategy::kNaiveBottomUp), "naive");
  EXPECT_EQ(StrategyName(Strategy::kSemiNaiveBottomUp), "seminaive");
  EXPECT_EQ(StrategyName(Strategy::kMagic), "gms");
  EXPECT_EQ(StrategyName(Strategy::kSupplementaryMagic), "gsms");
  EXPECT_EQ(StrategyName(Strategy::kCounting), "gc");
  EXPECT_EQ(StrategyName(Strategy::kSupplementaryCounting), "gsc");
  EXPECT_EQ(StrategyName(Strategy::kCountingSemijoin), "gc+sj");
  EXPECT_EQ(StrategyName(Strategy::kSupCountingSemijoin), "gsc+sj");
  EXPECT_EQ(StrategyName(Strategy::kTopDown), "topdown");
}

TEST(QueryEngineTest, BasePredicateQueriesAreSelections) {
  Workload w = MakeAncestorChain(5);
  Universe& u = *w.universe;
  PredId par = *u.predicates().Find(*u.symbols().Find("par"), 2);
  Query query;
  query.goal.pred = par;
  query.goal.args = {u.Constant("c1"), u.FreshVariable("Y")};
  QueryEngine engine;
  QueryAnswer answer = engine.Run(w.program, query, w.db);
  ASSERT_TRUE(answer.status.ok());
  ASSERT_EQ(answer.tuples.size(), 1u);
  EXPECT_EQ(answer.tuples[0][0], u.Constant("c2"));
}

TEST(QueryEngineTest, UnknownSipStrategyIsAnError) {
  Workload w = MakeAncestorChain(5);
  EngineOptions options;
  options.sip = "no-such-sip";
  QueryAnswer answer = QueryEngine(options).Run(w.program, w.query, w.db);
  EXPECT_EQ(answer.status.code(), StatusCode::kInvalidArgument);
}

TEST(QueryEngineTest, ExplainAttachesRewrittenProgram) {
  Workload w = MakeAncestorChain(5);
  EngineOptions options;
  options.strategy = Strategy::kMagic;
  options.explain = true;
  QueryAnswer answer = QueryEngine(options).Run(w.program, w.query, w.db);
  ASSERT_TRUE(answer.status.ok());
  EXPECT_NE(answer.rewritten_text.find("magic_anc_bf"), std::string::npos);
}

TEST(QueryEngineTest, StaticSafetyCheckBlocksDivergentCounting) {
  auto parsed = ParseUnit(R"(
    a(X,Y) :- p(X,Y).
    a(X,Y) :- a(X,Z), a(Z,Y).
    p(c0,c1).
    ?- a(c0, Y).
  )");
  ASSERT_TRUE(parsed.ok());
  Database db(parsed->program.universe());
  for (const Fact& fact : parsed->facts) ASSERT_TRUE(db.AddFact(fact).ok());
  EngineOptions options;
  options.strategy = Strategy::kCounting;
  options.static_safety_check = true;
  QueryAnswer answer =
      QueryEngine(options).Run(parsed->program, *parsed->query, db);
  EXPECT_EQ(answer.status.code(), StatusCode::kUnsafe);
  EXPECT_NE(answer.safety_note.find("Thm 10.3"), std::string::npos);
}

TEST(QueryEngineTest, SafetyCheckPassesMagicOnTheSameProgram) {
  auto parsed = ParseUnit(R"(
    a(X,Y) :- p(X,Y).
    a(X,Y) :- a(X,Z), a(Z,Y).
    p(c0,c1). p(c1,c2).
    ?- a(c0, Y).
  )");
  ASSERT_TRUE(parsed.ok());
  Database db(parsed->program.universe());
  for (const Fact& fact : parsed->facts) ASSERT_TRUE(db.AddFact(fact).ok());
  EngineOptions options;
  options.strategy = Strategy::kMagic;
  options.static_safety_check = true;
  QueryAnswer answer =
      QueryEngine(options).Run(parsed->program, *parsed->query, db);
  ASSERT_TRUE(answer.status.ok());
  EXPECT_EQ(answer.tuples.size(), 2u);
  EXPECT_NE(answer.safety_note.find("Thm 10.2"), std::string::npos);
}

TEST(QueryEngineTest, CountingAnswersAreLevelZeroOnly) {
  // The engine must select index level (0,0,0): deeper levels hold answers
  // to subqueries, not to the query.
  auto parsed = ParseUnit(R"(
    a(X,Y) :- p(X,Y).
    a(X,Y) :- p(X,Z), a(Z,Y).
    p(c0,c1). p(c1,c2). p(c2,c0).
    ?- a(c1, Y).
  )");
  ASSERT_TRUE(parsed.ok());
  Database db(parsed->program.universe());
  for (const Fact& fact : parsed->facts) ASSERT_TRUE(db.AddFact(fact).ok());
  // Cyclic data: cap the evaluation but still check extraction behaviour
  // under gms (terminates) for the same query.
  EngineOptions options;
  options.strategy = Strategy::kMagic;
  QueryAnswer gms = QueryEngine(options).Run(parsed->program, *parsed->query,
                                             db);
  ASSERT_TRUE(gms.status.ok());
  EXPECT_EQ(gms.tuples.size(), 3u);  // c0, c1, c2 all reachable
}

TEST(QueryEngineTest, RewriteFacadeRejectsNonRewritingStrategies) {
  Workload w = MakeAncestorChain(4);
  FullSipStrategy sip;
  auto adorned = Adorn(w.program, w.query, sip);
  ASSERT_TRUE(adorned.ok());
  auto result = QueryEngine::Rewrite(*adorned, Strategy::kTopDown,
                                     GuardMode::kProp42);
  EXPECT_FALSE(result.ok());
}

TEST(QueryEngineTest, RewriteFacadeCoversAllRewritingStrategies) {
  Workload w = MakeAncestorChain(4);
  FullSipStrategy sip;
  auto adorned = Adorn(w.program, w.query, sip);
  ASSERT_TRUE(adorned.ok());
  for (Strategy strategy :
       {Strategy::kMagic, Strategy::kSupplementaryMagic, Strategy::kCounting,
        Strategy::kSupplementaryCounting, Strategy::kCountingSemijoin,
        Strategy::kSupCountingSemijoin}) {
    auto rewritten =
        QueryEngine::Rewrite(*adorned, strategy, GuardMode::kProp42);
    ASSERT_TRUE(rewritten.ok()) << StrategyName(strategy);
    EXPECT_FALSE(rewritten->program.rules().empty());
    EXPECT_NE(rewritten->answer_pred, kInvalidPred);
  }
}

TEST(QueryEngineTest, EvaluationBudgetSurfacesInStatus) {
  Workload w = MakeAncestorCycle(8);
  EngineOptions options;
  options.strategy = Strategy::kCounting;
  options.eval.max_facts = 2000;
  QueryAnswer answer = QueryEngine(options).Run(w.program, w.query, w.db);
  EXPECT_EQ(answer.status.code(), StatusCode::kResourceExhausted);
}

TEST(QueryEngineTest, AnswersAreSortedAndUnique) {
  Workload w = MakeAncestorRandom(20, 60, 3);
  QueryEngine engine;
  QueryAnswer answer = engine.Run(w.program, w.query, w.db);
  ASSERT_TRUE(answer.status.ok());
  for (size_t i = 1; i < answer.tuples.size(); ++i) {
    EXPECT_LT(answer.tuples[i - 1], answer.tuples[i]);
  }
}

// Answer extraction: AnswerProjector::ForRewritten (over a magic rewrite)
// and AnswerProjector::ForDirect (over a plain semi-naive run) against a std::set
// reference built from the transitive closure by hand.

constexpr const char* kAncestorGraph = R"(
  anc(X,Y) :- par(X,Y).
  anc(X,Y) :- par(X,Z), anc(Z,Y).
  par(c0,c1). par(c1,c2). par(c2,c0). par(c2,c3). par(c3,c4). par(c4,c3).
  par(c5,c6). par(c1,c6).
)";

using AnswerSet = std::set<std::vector<TermId>>;

/// anc's tuples, computed from par by iterating to a fixpoint.
std::set<std::pair<TermId, TermId>> Closure(const Database& db, PredId par) {
  std::set<std::pair<TermId, TermId>> closure;
  const Relation& rel = *db.Find(par);
  for (size_t r = 0; r < rel.size(); ++r) {
    closure.emplace(rel.Row(r)[0], rel.Row(r)[1]);
  }
  for (bool grew = true; grew;) {
    grew = false;
    for (const auto& [x, z] : std::set(closure)) {
      for (const auto& [z2, y] : std::set(closure)) {
        if (z == z2) grew |= closure.emplace(x, y).second;
      }
    }
  }
  return closure;
}

struct ExtractionCase {
  const char* name;
  const char* goal;
  /// The reference answers, from the closure.
  AnswerSet (*expected)(const std::set<std::pair<TermId, TermId>>&,
                        Universe&);
};

/// gtest lists a parameterized test with its printed parameter. Without
/// this it would print the case's raw bytes: two string pointers and a
/// function pointer, which move whenever the binary's string literals or
/// load address do, so the listed (and ctest) names would too.
void PrintTo(const ExtractionCase& c, std::ostream* os) { *os << c.name; }

/// Loads kAncestorGraph with the case's goal and computes its reference
/// answers.
class ExtractionFixture : public ::testing::TestWithParam<ExtractionCase> {
 protected:
  void SetUp() override {
    const ExtractionCase& c = GetParam();
    auto parsed =
        ParseUnit(std::string(kAncestorGraph) + "?- " + c.goal + ".");
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    unit_ = std::move(*parsed);
    db_ = std::make_unique<Database>(unit_.program.universe());
    for (const Fact& fact : unit_.facts) ASSERT_TRUE(db_->AddFact(fact).ok());
    Universe& u = *unit_.program.universe();
    par_ = *u.predicates().Find(*u.symbols().Find("par"), 2);
    expected_ = c.expected(Closure(*db_, par_), u);
  }

  ParsedUnit unit_;
  std::unique_ptr<Database> db_;
  PredId par_ = 0;
  AnswerSet expected_;
};

using AnswerExtractionTest = ExtractionFixture;
using HookedExtractionTest = ExtractionFixture;

std::vector<std::vector<TermId>> Sorted(const AnswerSet& set) {
  return {set.begin(), set.end()};
}

/// The answers to `query` in an evaluation of `rewritten`: its answer
/// predicate's rows, filtered and projected by AnswerProjector.
std::vector<std::vector<TermId>> RewrittenAnswers(
    const Universe& u, const RewrittenProgram& rewritten, const Query& query,
    const EvalResult& eval) {
  auto it = eval.idb.find(rewritten.answer_pred);
  if (it == eval.idb.end()) return {};
  return AnswerProjector::ForRewritten(u, rewritten, query)
      .ProjectAll(it->second);
}

TEST_P(AnswerExtractionTest, MagicRewriteExtractionMatchesReference) {
  Universe& u = *unit_.program.universe();
  const Query& query = *unit_.query;
  std::unique_ptr<SipStrategy> sip = MakeSipStrategy("full");
  auto adorned = Adorn(unit_.program, query, *sip);
  ASSERT_TRUE(adorned.ok());
  auto gms = MagicSetsRewrite(*adorned);
  ASSERT_TRUE(gms.ok());
  EvalResult result =
      Evaluator().Run(gms->program, *db_, MakeSeeds(*gms, adorned->query, u));
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(RewrittenAnswers(u, *gms, query, result), Sorted(expected_));
}

TEST_P(AnswerExtractionTest, DirectExtractionMatchesReference) {
  Universe& u = *unit_.program.universe();
  EvalResult result = Evaluator().Run(unit_.program, *db_, {});
  ASSERT_TRUE(result.status.ok());
  const PredId anc = unit_.query->goal.pred;
  EXPECT_EQ(AnswerProjector::ForDirect(u, *unit_.query)
                .ProjectAll(result.idb.at(anc)),
            Sorted(expected_));
}

TEST_P(HookedExtractionTest, HookedAndUnhookedRunsAgree) {
  // A row limit above the answer count runs the evaluation-time hook and
  // AnswerCollector::TakeSorted; no limit runs the extraction after the
  // fixpoint. Both must return the same tuples, in the same order.
  for (Strategy strategy : {Strategy::kMagic, Strategy::kSemiNaiveBottomUp}) {
    EngineOptions options;
    options.strategy = strategy;
    QueryEngine engine(options);
    QueryLimits limits;
    limits.row_limit = expected_.size() + 1;
    QueryAnswer hooked =
        engine.Run(unit_.program, *unit_.query, *db_, limits);
    QueryAnswer unhooked = engine.Run(unit_.program, *unit_.query, *db_);
    ASSERT_TRUE(hooked.status.ok());
    ASSERT_TRUE(unhooked.status.ok());
    EXPECT_EQ(hooked.outcome, AnswerStatus::kOk);
    EXPECT_EQ(hooked.tuples, unhooked.tuples) << StrategyName(strategy);
    EXPECT_EQ(unhooked.tuples, Sorted(expected_)) << StrategyName(strategy);
  }
}

/// The goals both suites run, each with its reference answers.
auto ExtractionCases() {
  return ::testing::Values(
      // Arity-2 projection: every pair of the closure.
      ExtractionCase{"Pairs", "anc(X, Y)",
                     [](const auto& closure, Universe&) {
                       AnswerSet out;
                       for (const auto& [x, y] : closure) out.insert({x, y});
                       return out;
                     }},
      // Arity-1 projection of a bound-free goal.
      ExtractionCase{"BoundFirst", "anc(c1, Y)",
                     [](const auto& closure, Universe& u) {
                       AnswerSet out;
                       for (const auto& [x, y] : closure) {
                         if (x == u.Constant("c1")) out.insert({y});
                       }
                       return out;
                     }},
      // A repeated variable keeps only the diagonal (each free position
      // is projected, so an answer is (x, x)).
      ExtractionCase{"Diagonal", "anc(X, X)",
                     [](const auto& closure, Universe&) {
                       AnswerSet out;
                       for (const auto& [x, y] : closure) {
                         if (x == y) out.insert({x, y});
                       }
                       return out;
                     }},
      // Fully ground goals: one empty tuple when the fact holds ...
      ExtractionCase{"GroundHolds", "anc(c0, c4)",
                     [](const auto& closure, Universe& u) {
                       AnswerSet out;
                       if (closure.count({u.Constant("c0"),
                                          u.Constant("c4")})) {
                         out.insert(std::vector<TermId>{});
                       }
                       return out;
                     }},
      // ... and none when it does not.
      ExtractionCase{"GroundFails", "anc(c3, c0)",
                     [](const auto& closure, Universe& u) {
                       AnswerSet out;
                       if (closure.count({u.Constant("c3"),
                                          u.Constant("c0")})) {
                         out.insert(std::vector<TermId>{});
                       }
                       return out;
                     }});
}

std::string CaseName(const ::testing::TestParamInfo<ExtractionCase>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Goals, HookedExtractionTest, ExtractionCases(),
                         CaseName);
INSTANTIATE_TEST_SUITE_P(Goals, AnswerExtractionTest, ExtractionCases(),
                         CaseName);

}  // namespace
}  // namespace magic
