#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "ast/universe.h"

namespace magic {
namespace {

std::shared_ptr<Universe> MakeBase() {
  auto base = std::make_shared<Universe>();
  base->Sym("par");
  base->Sym("anc");
  base->Constant("c0");
  return base;
}

TEST(PlanUniverseTest, OverlayResolvesBaseSymbolsAndLayersNewOnes) {
  std::shared_ptr<Universe> base = MakeBase();
  const size_t base_symbols = base->symbols().size();

  Universe overlay((std::shared_ptr<const Universe>(base)));
  EXPECT_TRUE(overlay.is_overlay());
  EXPECT_FALSE(base->is_overlay());

  // Base names resolve to base ids through the overlay.
  EXPECT_EQ(overlay.Sym("par"), base->Sym("par"));
  EXPECT_EQ(overlay.symbols().Name(*base->symbols().Find("anc")), "anc");

  // New names land above the base's id range, in the overlay only.
  SymbolId plan_local = overlay.Sym("magic_anc_bf");
  EXPECT_GE(plan_local, static_cast<SymbolId>(base_symbols));
  EXPECT_EQ(overlay.symbols().Name(plan_local), "magic_anc_bf");
  EXPECT_FALSE(base->symbols().Find("magic_anc_bf").has_value());
  EXPECT_EQ(base->symbols().size(), base_symbols);

  // Interning the same name twice in the overlay is stable.
  EXPECT_EQ(overlay.Sym("magic_anc_bf"), plan_local);
}

TEST(PlanUniverseTest, OverlayDeclaresPredicatesWithoutTouchingTheBase) {
  std::shared_ptr<Universe> base = MakeBase();
  PredId par =
      base->predicates().Declare(base->Sym("par"), 2, PredKind::kBase);
  const size_t base_preds = base->predicates().size();

  Universe overlay((std::shared_ptr<const Universe>(base)));
  EXPECT_EQ(overlay.predicates().Find(base->Sym("par"), 2), par);
  EXPECT_EQ(overlay.predicates().info(par).arity, 2u);

  SymbolId name = overlay.UniquePredicateName("anc_bf", 2);
  PredId adorned = overlay.predicates().Declare(name, 2, PredKind::kDerived);
  EXPECT_GE(adorned, static_cast<PredId>(base_preds));
  overlay.predicates().mutable_info(adorned).parent = par;
  EXPECT_EQ(overlay.predicates().info(adorned).parent, par);

  // The base registry is untouched: same size, and the overlay's name is
  // unknown to it.
  EXPECT_EQ(base->predicates().size(), base_preds);
  EXPECT_FALSE(base->symbols().Find("anc_bf").has_value());
}

TEST(PlanUniverseTest, OverlaySharesTheBaseTermArena) {
  std::shared_ptr<Universe> base = MakeBase();
  TermId c0 = base->Constant("c0");

  Universe overlay((std::shared_ptr<const Universe>(base)));
  // Base terms are the same ids through the overlay (EDB comparability).
  EXPECT_EQ(overlay.Constant("c0"), c0);
  // Arena interning through the overlay is visible to the base arena:
  // there is exactly one arena.
  TermId seven = overlay.Integer(7);
  EXPECT_EQ(base->Integer(7), seven);
  EXPECT_TRUE(overlay.terms().IsGround(seven));
}

TEST(PlanUniverseTest, SiblingOverlaysAreIndependent) {
  std::shared_ptr<Universe> base = MakeBase();
  const size_t base_symbols = base->symbols().size();

  Universe plan_a((std::shared_ptr<const Universe>(base)));
  Universe plan_b((std::shared_ptr<const Universe>(base)));

  // Both overlays may hand out the same id for different plan-local names;
  // each resolves its ids through its own table, so neither observes the
  // other (ids from different plans are never mixed by construction).
  SymbolId a = plan_a.Sym("magic_anc_bf");
  SymbolId b = plan_b.Sym("sup_1_2");
  EXPECT_EQ(a, static_cast<SymbolId>(base_symbols));
  EXPECT_EQ(b, static_cast<SymbolId>(base_symbols));
  EXPECT_EQ(plan_a.symbols().Name(a), "magic_anc_bf");
  EXPECT_EQ(plan_b.symbols().Name(b), "sup_1_2");
  EXPECT_FALSE(plan_a.symbols().Find("sup_1_2").has_value());
  EXPECT_FALSE(plan_b.symbols().Find("magic_anc_bf").has_value());
}

TEST(PlanUniverseTest, UniquePredicateNameAvoidsBaseCollisions) {
  std::shared_ptr<Universe> base = MakeBase();
  base->predicates().Declare(base->Sym("anc_bf"), 2, PredKind::kDerived);

  Universe overlay((std::shared_ptr<const Universe>(base)));
  // "anc_bf"/2 is taken in the frozen base, so the overlay must mangle.
  SymbolId mangled = overlay.UniquePredicateName("anc_bf", 2);
  EXPECT_EQ(overlay.symbols().Name(mangled), "anc_bf_1");
  // At a different arity the base name is free.
  SymbolId free_name = overlay.UniquePredicateName("anc_bf", 3);
  EXPECT_EQ(overlay.symbols().Name(free_name), "anc_bf");
}

TEST(PlanUniverseTest, LateBaseSymbolsDoNotAliasOverlayIds) {
  // The root table keeps interning at runtime (the server parses new
  // constants on live connections), so a base id assigned *after* an
  // overlay captured its offset can numerically collide with an
  // overlay-local id. The overlay must treat such base hits as misses —
  // resolving them would hand back the overlay's string for the base's
  // name (or vice versa).
  std::shared_ptr<Universe> base = MakeBase();
  const size_t base_symbols = base->symbols().size();

  Universe overlay((std::shared_ptr<const Universe>(base)));
  SymbolId plan_local = overlay.Sym("magic_anc_bf");
  EXPECT_EQ(plan_local, static_cast<SymbolId>(base_symbols));

  // The base interns a new name after overlay creation; it lands on the
  // same numeric id as the overlay's plan-local symbol.
  SymbolId late = base->Sym("late_root_name");
  EXPECT_EQ(late, plan_local);

  // A lookup through the overlay must miss (not alias plan_local)...
  EXPECT_FALSE(overlay.symbols().Find("late_root_name").has_value());
  // ...and the overlay's own id still resolves to the overlay's string.
  EXPECT_EQ(overlay.symbols().Name(plan_local), "magic_anc_bf");

  // Interning the late name through the overlay shadows it locally with a
  // fresh id that resolves correctly, leaving the base untouched.
  SymbolId shadowed = overlay.Sym("late_root_name");
  EXPECT_NE(shadowed, late);
  EXPECT_EQ(overlay.symbols().Name(shadowed), "late_root_name");
  EXPECT_EQ(base->symbols().Name(late), "late_root_name");
}

TEST(PlanUniverseTest, LateBasePredicatesDoNotAliasOverlayIds) {
  // Same horizon rule for the predicate registry: a root declaration made
  // after overlay creation gets an id that collides with an overlay-local
  // predicate; resolving it through the overlay would return the wrong
  // PredicateInfo (or trip the offset MAGIC_CHECK).
  std::shared_ptr<Universe> base = MakeBase();
  SymbolId late_name = base->Sym("late_pred");  // symbol exists pre-overlay
  base->predicates().Declare(base->Sym("par"), 2, PredKind::kBase);
  const size_t base_preds = base->predicates().size();

  Universe overlay((std::shared_ptr<const Universe>(base)));
  SymbolId local_name = overlay.Sym("magic_anc_bf");
  PredId plan_local =
      overlay.predicates().Declare(local_name, 2, PredKind::kMagic);
  EXPECT_EQ(plan_local, static_cast<PredId>(base_preds));

  PredId late = base->predicates().Declare(late_name, 2, PredKind::kDerived);
  EXPECT_EQ(late, plan_local);  // numeric collision across the horizon

  // Find through the overlay must miss instead of returning the aliased
  // id, and the overlay-local info stays the authoritative resolution.
  EXPECT_FALSE(overlay.predicates().Find(late_name, 2).has_value());
  EXPECT_EQ(overlay.predicates().info(plan_local).name, local_name);
  EXPECT_EQ(overlay.predicates().info(plan_local).kind, PredKind::kMagic);

  // GetOrDeclare through the overlay declares a fresh local predicate
  // rather than "upgrading" the base's late entry through the alias.
  PredId shadowed =
      overlay.predicates().GetOrDeclare(late_name, 2, PredKind::kDerived);
  EXPECT_NE(shadowed, late);
  EXPECT_EQ(overlay.predicates().info(shadowed).kind, PredKind::kDerived);
  EXPECT_EQ(base->predicates().info(late).name, late_name);
}

TEST(PlanUniverseTest, FreshVariablesNeverCollideWithBaseVariables) {
  std::shared_ptr<Universe> base = MakeBase();
  TermId base_fresh = base->FreshVariable("I");

  Universe overlay((std::shared_ptr<const Universe>(base)));
  TermId overlay_fresh = overlay.FreshVariable("I");
  EXPECT_NE(overlay_fresh, base_fresh);
  // Distinct names, hence distinct (shared-arena) variable terms.
  const TermView a = base->terms().Get(base_fresh);
  const TermView b = overlay.terms().Get(overlay_fresh);
  EXPECT_NE(base->symbols().Name(a.symbol), overlay.symbols().Name(b.symbol));
}

TEST(PlanUniverseTest, ConcurrentOverlayInterningOverOneFrozenBase) {
  // The serving-layer shape: one frozen base, many plans compiling and
  // interning terms concurrently. Symbol/predicate writes are per-overlay
  // (no sharing); term interning races are the arena's job.
  std::shared_ptr<Universe> base = MakeBase();
  constexpr int kPlans = 8;
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<Universe>> overlays(kPlans);
  for (int p = 0; p < kPlans; ++p) {
    overlays[p] = std::make_unique<Universe>(
        std::shared_ptr<const Universe>(base));
  }
  for (int p = 0; p < kPlans; ++p) {
    threads.emplace_back([&, p] {
      Universe& overlay = *overlays[p];
      for (int i = 0; i < 200; ++i) {
        SymbolId sym =
            overlay.Sym("plan" + std::to_string(p) + "_s" + std::to_string(i));
        overlay.predicates().Declare(sym, 2, PredKind::kMagic);
        overlay.Integer(i);       // shared arena, internally synchronized
        overlay.Constant("c0");   // base symbol, arena-shared constant
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int p = 0; p < kPlans; ++p) {
    EXPECT_EQ(overlays[p]->predicates().size(),
              base->predicates().size() + 200);
  }
}

}  // namespace
}  // namespace magic
