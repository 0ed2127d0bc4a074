// Property tests for the matcher: one-way matching against randomly built
// ground terms must agree with a reference substitution semantics —
// match(p, g) succeeds iff applying the resulting bindings to p rebuilds g,
// and affine inversion must agree with forward evaluation.

#include <gtest/gtest.h>

#include <random>

#include "eval/matcher.h"

namespace magic {
namespace {

/// Builds a random ground term of bounded depth.
TermId RandomGroundTerm(Universe& u, std::mt19937& rng, int depth) {
  int kind = static_cast<int>(rng() % (depth > 0 ? 3 : 2));
  switch (kind) {
    case 0:
      return u.Constant("k" + std::to_string(rng() % 5));
    case 1:
      return u.Integer(static_cast<int64_t>(rng() % 20));
    default: {
      int arity = 1 + static_cast<int>(rng() % 2);
      std::vector<TermId> children;
      for (int i = 0; i < arity; ++i) {
        children.push_back(RandomGroundTerm(u, rng, depth - 1));
      }
      return u.terms().MakeCompound(u.Sym("f" + std::to_string(rng() % 2)),
                                    std::move(children));
    }
  }
}

/// Builds a random pattern by replacing random subterms of `ground` with
/// variables (so the pattern is guaranteed to match).
TermId Generalize(Universe& u, std::mt19937& rng, TermId ground,
                  int* var_counter) {
  if (rng() % 4 == 0) {
    return u.Variable("V" + std::to_string((*var_counter)++ % 3));
  }
  const TermView data = u.terms().Get(ground);
  if (data.kind == TermKind::kCompound) {
    std::vector<TermId> children;
    for (TermId child : data.children) {
      children.push_back(Generalize(u, rng, child, var_counter));
    }
    return u.terms().MakeCompound(data.symbol, children);
  }
  return ground;
}

class MatcherPropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MatcherPropertyTest, MatchThenSubstituteRebuildsTheGroundTerm) {
  Universe u;
  std::mt19937 rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    TermId ground = RandomGroundTerm(u, rng, 3);
    int var_counter = 0;
    TermId pattern = Generalize(u, rng, ground, &var_counter);
    Substitution subst;
    if (MatchTerm(u, pattern, ground, &subst)) {
      EXPECT_EQ(SubstituteGround(u, pattern, subst), ground)
          << u.TermToString(pattern) << " vs " << u.TermToString(ground);
    }
    // Note: a failed match is possible when the same variable generalized
    // two different subterms — that is correct behaviour.
  }
}

TEST_P(MatcherPropertyTest, MatchFailureMeansNoUnifier) {
  Universe u;
  std::mt19937 rng(GetParam() + 1000);
  for (int trial = 0; trial < 200; ++trial) {
    TermId g1 = RandomGroundTerm(u, rng, 3);
    TermId g2 = RandomGroundTerm(u, rng, 3);
    Substitution subst;
    bool matched = MatchTerm(u, g1, g2, &subst);
    // Two ground terms match iff they are the same hash-consed id.
    EXPECT_EQ(matched, g1 == g2);
  }
}

TEST_P(MatcherPropertyTest, AffineInversionAgreesWithForwardEvaluation) {
  Universe u;
  std::mt19937 rng(GetParam() + 2000);
  for (int trial = 0; trial < 300; ++trial) {
    int64_t mul = 1 + static_cast<int64_t>(rng() % 6);
    int64_t add = static_cast<int64_t>(rng() % 7);
    int64_t value = static_cast<int64_t>(rng() % 200);
    TermId var = u.Variable("K");
    TermId pattern = u.Affine(var, mul, add);
    Substitution subst;
    bool matched = MatchTerm(u, pattern, u.Integer(value), &subst);
    bool invertible = (value - add) % mul == 0;
    EXPECT_EQ(matched, invertible) << mul << "*K+" << add << " vs " << value;
    if (matched) {
      // Forward check: the binding reproduces the value.
      TermId forward = SubstituteGround(u, pattern, subst);
      EXPECT_EQ(forward, u.Integer(value));
    }
  }
}

TEST_P(MatcherPropertyTest, TrailRestoresAllBindings) {
  Universe u;
  std::mt19937 rng(GetParam() + 3000);
  for (int trial = 0; trial < 100; ++trial) {
    TermId ground = RandomGroundTerm(u, rng, 3);
    int var_counter = 0;
    TermId pattern = Generalize(u, rng, ground, &var_counter);
    Substitution subst;
    size_t mark = subst.Mark();
    (void)MatchTerm(u, pattern, ground, &subst);
    subst.UndoTo(mark);
    // All variables of the pattern must be unbound again.
    std::vector<SymbolId> vars;
    u.terms().AppendVariables(pattern, &vars);
    for (SymbolId v : vars) {
      EXPECT_EQ(subst.Lookup(v), kInvalidTerm);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherPropertyTest,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace magic
