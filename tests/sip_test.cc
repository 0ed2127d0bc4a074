#include "ast/sip_graph.h"

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "ast/validation.h"
#include "core/magic_sets.h"
#include "core/sip_strategies.h"
#include "engine/query_engine.h"
#include "eval/evaluator.h"

namespace magic {
namespace {

/// Builds the rule sg(X,Y) :- up(X,Z1), sg(Z1,Z2), flat(Z2,Z3), sg(Z3,Z4),
/// down(Z4,Y) used throughout Section 2.
struct SgRule {
  std::shared_ptr<Universe> universe;
  Program program;
  Rule rule;  // the recursive rule
  SgRule() {
    auto parsed = ParseUnit(R"(
      sg(X,Y) :- flat(X,Y).
      sg(X,Y) :- up(X,Z1), sg(Z1,Z2), flat(Z2,Z3), sg(Z3,Z4), down(Z4,Y).
    )");
    EXPECT_TRUE(parsed.ok());
    universe = parsed->program.universe();
    program = parsed->program;
    rule = program.rules()[1];
  }
  SymbolId sym(const std::string& name) { return universe->Sym(name); }
};

TEST(SipValidationTest, PaperSipIVIsValid) {
  SgRule f;
  SipGraph sip;
  sip.arcs.push_back(SipArc{{kSipHead, 0}, {f.sym("Z1")}, 1});
  sip.arcs.push_back(SipArc{{kSipHead, 0, 1, 2}, {f.sym("Z3")}, 3});
  Adornment bf = *Adornment::Parse("bf");
  EXPECT_TRUE(ValidateSip(*f.universe, f.rule, bf, sip).ok());
}

TEST(SipValidationTest, Condition2iLabelMustComeFromTail) {
  SgRule f;
  SipGraph sip;
  // Z2 does not appear in {ph, up}.
  sip.arcs.push_back(SipArc{{kSipHead, 0}, {f.sym("Z2")}, 1});
  Adornment bf = *Adornment::Parse("bf");
  Status st = ValidateSip(*f.universe, f.rule, bf, sip);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("(2)(i)"), std::string::npos);
}

TEST(SipValidationTest, Condition2iiTailMembersMustConnect) {
  SgRule f;
  SipGraph sip;
  // down(Z4,Y) shares no variable chain with Z1 inside the tail {ph,up,down}.
  sip.arcs.push_back(SipArc{{kSipHead, 0, 4}, {f.sym("Z1")}, 1});
  Adornment bf = *Adornment::Parse("bf");
  Status st = ValidateSip(*f.universe, f.rule, bf, sip);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("(2)(ii)"), std::string::npos);
}

TEST(SipValidationTest, Condition2iiiLabelMustCoverAnArgument) {
  // Use a rule where an argument has two variables so a partial cover
  // violates (2)(iii): q(f(Z1,W)) gets label {Z1} only.
  auto parsed = ParseUnit(R"(
    p(X,Y) :- e(X,Z1,W), q(f(Z1,W),Y).
    q(A,B) :- r(A,B).
  )");
  ASSERT_TRUE(parsed.ok());
  const Universe& u = *parsed->program.universe();
  const Rule& rule = parsed->program.rules()[0];
  SipGraph sip;
  SymbolId z1 = *u.symbols().Find("Z1");
  sip.arcs.push_back(SipArc{{0}, {z1}, 1});
  Adornment bf = *Adornment::Parse("bf");
  Status st = ValidateSip(u, rule, bf, sip);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("(2)(iii)"), std::string::npos);
}

TEST(SipValidationTest, Condition3CyclicPrecedenceRejected) {
  SgRule f;
  SipGraph sip;
  // sg.1 binds sg.2 and sg.2 binds sg.1: a cyclic binding assumption.
  sip.arcs.push_back(SipArc{{1}, {f.sym("Z2")}, 2});
  sip.arcs.push_back(SipArc{{2}, {f.sym("Z2")}, 1});
  Adornment bf = *Adornment::Parse("bf");
  Status st = ValidateSip(*f.universe, f.rule, bf, sip);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("(3)"), std::string::npos);
}

TEST(SipValidationTest, TargetInOwnTailRejected) {
  SgRule f;
  SipGraph sip;
  sip.arcs.push_back(SipArc{{1}, {f.sym("Z2")}, 1});
  Adornment bf = *Adornment::Parse("bf");
  EXPECT_FALSE(ValidateSip(*f.universe, f.rule, bf, sip).ok());
}

TEST(SipContainmentTest, ChainSipIsContainedInFullSip) {
  SgRule f;
  FullSipStrategy full;
  ChainSipStrategy chain;
  Adornment bf = *Adornment::Parse("bf");
  auto full_sip = full.BuildSip(*f.universe, f.rule, bf, f.program);
  auto chain_sip = chain.BuildSip(*f.universe, f.rule, bf, f.program);
  ASSERT_TRUE(full_sip.ok());
  ASSERT_TRUE(chain_sip.ok());
  // Section 2.1: the chain sip (V) is properly contained in the full sip
  // (IV); the converse fails.
  EXPECT_TRUE(SipContainedIn(*chain_sip, *full_sip));
  EXPECT_FALSE(SipContainedIn(*full_sip, *chain_sip));
}

TEST(SipContainmentTest, EverySipContainsItself) {
  SgRule f;
  FullSipStrategy full;
  Adornment bf = *Adornment::Parse("bf");
  auto sip = full.BuildSip(*f.universe, f.rule, bf, f.program);
  ASSERT_TRUE(sip.ok());
  EXPECT_TRUE(SipContainedIn(*sip, *sip));
}

TEST(SipOrderTest, NonParticipantsComeLast) {
  SgRule f;
  SipGraph sip;
  sip.arcs.push_back(SipArc{{kSipHead, 0}, {f.sym("Z1")}, 1});
  auto order = ComputeSipOrder(f.rule.body.size(), sip);
  ASSERT_TRUE(order.ok());
  // Participants {0 (up), 1 (sg.1)} first, then 2, 3, 4.
  EXPECT_EQ(*order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// Lemma 9.3: the facts computed under a full sip are contained in the facts
// computed under any sip it contains (partial sips compute more).
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

TEST(PartialSipTest, FullSipComputesSubsetOfPartialSipFacts) {
  auto parsed = ParseUnit(R"(
    sg(X,Y) :- flat(X,Y).
    sg(X,Y) :- up(X,Z1), sg(Z1,Z2), flat(Z2,Z3), sg(Z3,Z4), down(Z4,Y).
    up(a,b). up(b,c). up(d,b). up(e,a).
    flat(b,d). flat(c,e). flat(a,c). flat(d,a). flat(e,b).
    down(d,e). down(b,a). down(c,d). down(a,e).
    ?- sg(a, Y).
  )");
  ASSERT_TRUE(parsed.ok());
  Database db(parsed->program.universe());
  for (const Fact& fact : parsed->facts) ASSERT_TRUE(db.AddFact(fact).ok());
  Universe& u = *parsed->program.universe();

  auto run = [&](const std::string& sip_name) {
    std::unique_ptr<SipStrategy> strategy = MakeSipStrategy(sip_name);
    auto adorned = Adorn(parsed->program, *parsed->query, *strategy);
    EXPECT_TRUE(adorned.ok());
    auto gms = MagicSetsRewrite(*adorned);
    EXPECT_TRUE(gms.ok());
    EvalResult result = Evaluator().Run(
        gms->program, db, MakeSeeds(*gms, adorned->query, u));
    EXPECT_TRUE(result.status.ok());
    std::vector<std::vector<TermId>> answers =
        RewrittenAnswers(u, *gms, *parsed->query, result);
    return std::make_pair(result.TotalFacts(), answers);
  };

  auto [full_total, full_answers] = run("full");
  auto [chain_total, chain_answers] = run("chain");
  // Identical answers, but the partial sip computes at least as many facts
  // (and on this data strictly more).
  EXPECT_EQ(full_answers, chain_answers);
  EXPECT_LT(full_total, chain_total);
}

TEST(SipStrategyTest, FactoryResolvesAllNames) {
  for (const char* name :
       {"full", "full-left-to-right", "chain", "head-only", "empty",
        "greedy"}) {
    EXPECT_NE(MakeSipStrategy(name), nullptr) << name;
  }
  EXPECT_EQ(MakeSipStrategy("nonsense"), nullptr);
}

TEST(SipStrategyTest, StrategiesProduceValidSipsOnAppendixPrograms) {
  const char* programs[] = {
      R"(anc(X,Y) :- par(X,Y).
         anc(X,Y) :- par(X,Z), anc(Z,Y).
         ?- anc(j, Y).)",
      R"(a(X,Y) :- p(X,Y).
         a(X,Y) :- a(X,Z), a(Z,Y).
         ?- a(j, Y).)",
      R"(sg(X,Y) :- flat(X,Y).
         sg(X,Y) :- up(X,Z1), sg(Z1,Z2), flat(Z2,Z3), sg(Z3,Z4), down(Z4,Y).
         ?- sg(j, Y).)",
      R"(append(V, [], [V]).
         append(V, [W|X], [W|Y]) :- append(V, X, Y).
         reverse([], []).
         reverse([V|X], Y) :- reverse(X, Z), append(V, Z, Y).
         ?- reverse([a], Y).)",
  };
  for (const char* text : programs) {
    for (const char* name : {"full", "chain", "head-only", "empty", "greedy"}) {
      auto parsed = ParseUnit(text);
      ASSERT_TRUE(parsed.ok());
      std::unique_ptr<SipStrategy> strategy = MakeSipStrategy(name);
      auto adorned = Adorn(parsed->program, *parsed->query, *strategy);
      EXPECT_TRUE(adorned.ok())
          << name << " failed on:\n" << text << "\n"
          << adorned.status().ToString();
    }
  }
}

}  // namespace
}  // namespace magic
