#include "ast/term.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "ast/universe.h"

namespace magic {
namespace {

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable table;
  SymbolId a = table.Intern("anc");
  SymbolId b = table.Intern("par");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, table.Intern("anc"));
  EXPECT_EQ(table.Name(a), "anc");
  EXPECT_EQ(table.Name(b), "par");
  EXPECT_EQ(table.size(), 2u);
}

TEST(SymbolTableTest, FindDoesNotIntern) {
  SymbolTable table;
  EXPECT_FALSE(table.Find("missing").has_value());
  SymbolId a = table.Intern("x");
  ASSERT_TRUE(table.Find("x").has_value());
  EXPECT_EQ(*table.Find("x"), a);
}

TEST(SymbolTableTest, RandomizedInterningOverSeveralDoublings) {
  // A base table and an overlay each grow their lookup tables from 16
  // slots through 9+ doublings. Ids stay dense and stable, re-interning
  // returns the first id, and Find and Name round-trip on both layers;
  // names the base interns after the overlay's horizon stay invisible to
  // it.
  std::mt19937_64 rng(7);
  SymbolTable base;
  std::vector<std::string> base_names;
  auto intern_base = [&](const std::string& name) {
    const size_t before = base.size();
    const SymbolId id = base.Intern(name);
    if (base.size() > before) {
      EXPECT_EQ(id, before) << name;  // dense: the next id
      base_names.push_back(name);
    }
    EXPECT_EQ(base_names[id], name);
  };
  for (int i = 0; i < 6000; ++i) {
    // Re-interns mixed in: roughly one name in three is a repeat.
    intern_base(rng() % 3 == 0 && !base_names.empty()
                    ? base_names[rng() % base_names.size()]
                    : "b" + std::to_string(rng() % 100'000));
  }
  const SymbolId horizon = static_cast<SymbolId>(base.size());

  SymbolTable overlay(&base);
  std::vector<std::string> local_names;  // overlay ids horizon, horizon+1, ...
  std::vector<std::string> late_names;   // base ids past the horizon
  for (int i = 0; i < 6000; ++i) {
    const unsigned op = static_cast<unsigned>(rng() % 4);
    if (op == 0) {
      // A base name the overlay saw at creation keeps the base's id.
      const SymbolId id = static_cast<SymbolId>(rng() % horizon);
      ASSERT_EQ(overlay.Intern(base_names[id]), id);
    } else if (op == 1) {
      const std::string name = "late" + std::to_string(i);
      late_names.push_back(name);
      intern_base(name);
    } else {
      // Fresh overlay names, some of them late base names, which the
      // overlay shadows with a local id.
      const std::string name =
          rng() % 4 == 0 && !late_names.empty()
              ? late_names[rng() % late_names.size()]
              : "o" + std::to_string(rng() % 100'000);
      const size_t before = overlay.size();
      const SymbolId id = overlay.Intern(name);
      if (overlay.size() > before) {
        ASSERT_EQ(id, before);
        local_names.push_back(name);
      }
      ASSERT_GE(id, horizon) << name;
      ASSERT_EQ(local_names[id - horizon], name);
    }
  }
  ASSERT_EQ(base.size(), base_names.size());
  ASSERT_EQ(overlay.size(), horizon + local_names.size());
  ASSERT_GT(local_names.size(), 2048u);  // several doublings past 16 slots
  for (SymbolId id = 0; id < base_names.size(); ++id) {
    ASSERT_EQ(base.Name(id), base_names[id]);
    ASSERT_EQ(base.Find(base_names[id]), id);
    ASSERT_EQ(base.Intern(base_names[id]), id);
    if (id < horizon) {
      ASSERT_EQ(overlay.Find(base_names[id]), id);
    }
  }
  for (size_t i = 0; i < local_names.size(); ++i) {
    const SymbolId id = horizon + static_cast<SymbolId>(i);
    ASSERT_EQ(overlay.Name(id), local_names[i]);
    ASSERT_EQ(overlay.Find(local_names[i]), id);
    ASSERT_EQ(overlay.Intern(local_names[i]), id);
  }
  for (const std::string& name : late_names) {
    const std::optional<SymbolId> seen = overlay.Find(name);
    ASSERT_TRUE(!seen.has_value() || *seen >= horizon) << name;
    if (seen.has_value()) {
      ASSERT_EQ(overlay.Name(*seen), name);
    }
  }
  EXPECT_FALSE(base.Find("never interned").has_value());
  EXPECT_FALSE(overlay.Find("never interned").has_value());
  EXPECT_EQ(overlay.size(), horizon + local_names.size());  // Find interns nothing
}

TEST(SymbolTableTest, ConcurrentInterningGivesEachNameOneId) {
  // Writers intern overlapping name ranges (each through a Universe, so
  // the term arena interns a constant per name too) while readers look
  // names up and read back the terms published so far. Every name ends
  // with exactly one symbol id and one constant term.
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr int kNames = 12'000;
  Universe u;
  auto name_of = [](int i) { return "n" + std::to_string(i); };
  // Writer w interns names [w * kNames / 8, w * kNames / 8 + kNames / 2)
  // in a shuffled order, so every name has one to four writers.
  std::vector<std::vector<std::pair<int, TermId>>> interned(kWriters);
  std::atomic<int> readers_ready{0};
  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      while (readers_ready.load() < kReaders) std::this_thread::yield();
      std::vector<int> order;
      for (int i = 0; i < kNames / 2; ++i) order.push_back(w * kNames / 8 + i);
      std::shuffle(order.begin(), order.end(), std::mt19937_64(w));
      for (int i : order) interned[w].emplace_back(i, u.Constant(name_of(i)));
      writers_left.fetch_sub(1);
    });
  }
  std::atomic<size_t> reads{0};
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      std::mt19937_64 rng(100 + r);
      readers_ready.fetch_add(1);
      // At least 1000 lookups, and more for as long as writers run.
      for (int i = 0; i < 1000 || writers_left.load() > 0; ++i) {
        const std::string name = name_of(static_cast<int>(rng() % kNames));
        if (std::optional<SymbolId> id = u.symbols().Find(name)) {
          EXPECT_EQ(u.symbols().Name(*id), name);
        }
        const size_t terms = u.terms().size();
        if (terms == 0) continue;
        const TermView t = u.terms().Get(static_cast<TermId>(rng() % terms));
        EXPECT_EQ(t.kind, TermKind::kConstant);
        EXPECT_EQ(u.symbols().Name(t.symbol)[0], 'n');
        reads.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const int distinct = kNames / 8 * (kWriters - 1) + kNames / 2;
  EXPECT_EQ(u.symbols().size(), static_cast<size_t>(distinct));
  EXPECT_EQ(u.terms().size(), static_cast<size_t>(distinct));
  std::set<SymbolId> symbols;
  std::set<TermId> terms;
  std::map<int, TermId> term_of;
  for (const auto& results : interned) {
    for (const auto& [i, term] : results) {
      auto [it, first] = term_of.emplace(i, term);
      EXPECT_EQ(it->second, term) << "two ids for " << name_of(i);
    }
  }
  ASSERT_EQ(term_of.size(), static_cast<size_t>(distinct));
  for (const auto& [i, term] : term_of) {
    const std::optional<SymbolId> id = u.symbols().Find(name_of(i));
    ASSERT_TRUE(id.has_value()) << name_of(i);
    EXPECT_EQ(u.terms().Get(term).symbol, *id);
    EXPECT_EQ(u.symbols().Name(*id), name_of(i));
    EXPECT_EQ(u.Constant(name_of(i)), term);
    symbols.insert(*id);
    terms.insert(term);
  }
  EXPECT_EQ(symbols.size(), term_of.size());
  EXPECT_EQ(terms.size(), term_of.size());
  EXPECT_GT(reads.load(), 0u);
}

TEST(TermArenaTest, RandomizedInterningOverSeveralDoublings) {
  // Constants, integers (negative and extreme), compounds over earlier
  // terms and affine terms over variables, interned in a seeded order
  // with repeats until the dedup table has doubled past 16k slots. Ids are
  // dense and stable, re-interning returns the first id, and Get returns
  // what was interned.
  std::mt19937_64 rng(11);
  Universe u;
  using Key = std::tuple<TermKind, SymbolId, int64_t, int64_t, int64_t,
                         std::vector<TermId>>;
  std::map<Key, TermId> model;
  std::vector<Key> keys;  // by id
  std::vector<TermId> variables;
  auto check = [&](const Key& key, TermId id) {
    auto [it, fresh] = model.emplace(key, id);
    if (fresh) {
      ASSERT_EQ(id, keys.size()) << "ids must be dense";
      keys.push_back(key);
    }
    ASSERT_EQ(it->second, id);
    ASSERT_EQ(u.terms().size(), keys.size());
  };
  const std::vector<int64_t> extremes = {
      0, -1, 1, std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::max(), int64_t{1} << 32,
      -(int64_t{1} << 32)};
  for (int step = 0; step < 15'000; ++step) {
    const unsigned op = static_cast<unsigned>(rng() % 10);
    if (op < 3) {
      const std::string name = "k" + std::to_string(rng() % 3000);
      const TermId id = u.Constant(name);
      ASSERT_NO_FATAL_FAILURE(check(
          Key{TermKind::kConstant, *u.symbols().Find(name), 0, 0, 0, {}}, id));
    } else if (op < 6) {
      const int64_t value =
          rng() % 4 == 0 ? extremes[rng() % extremes.size()]
                         : static_cast<int64_t>(rng() % 2 == 0 ? rng()
                                                             : rng() % 5000) *
                               (rng() % 2 == 0 ? -1 : 1);
      ASSERT_NO_FATAL_FAILURE(
          check(Key{TermKind::kInteger, 0, value, 0, 0, {}}, u.Integer(value)));
    } else if (op < 7) {
      const std::string name = "V" + std::to_string(rng() % 40);
      const TermId id = u.Variable(name);
      variables.push_back(id);
      ASSERT_NO_FATAL_FAILURE(check(
          Key{TermKind::kVariable, *u.symbols().Find(name), 0, 0, 0, {}}, id));
    } else if (op < 9 && !keys.empty()) {
      const std::string functor = rng() % 2 == 0 ? "f" : ".";
      std::vector<TermId> args(1 + rng() % 3);
      for (TermId& arg : args) arg = static_cast<TermId>(rng() % keys.size());
      const TermId id = u.Compound(functor, args);
      ASSERT_NO_FATAL_FAILURE(check(Key{TermKind::kCompound,
                                        *u.symbols().Find(functor), 0, 0, 0,
                                        args},
                                    id));
    } else if (!variables.empty()) {
      const TermId var = variables[rng() % variables.size()];
      const int64_t mul = 1 + static_cast<int64_t>(rng() % 4);
      const int64_t add = static_cast<int64_t>(rng() % 7) - 3;
      ASSERT_NO_FATAL_FAILURE(check(
          Key{TermKind::kAffine, 0, 0, mul, add, {var}},
          u.Affine(var, mul, add)));
    }
  }
  ASSERT_GT(keys.size(), 8192u);
  for (TermId id = 0; id < keys.size(); ++id) {
    const auto& [kind, symbol, value, mul, add, children] = keys[id];
    const TermView t = u.terms().Get(id);
    ASSERT_EQ(t.kind, kind);
    ASSERT_EQ(t.symbol, symbol);
    ASSERT_EQ(t.value, value);
    ASSERT_EQ(t.mul, mul);
    ASSERT_EQ(t.add, add);
    ASSERT_EQ(std::vector<TermId>(t.children.begin(), t.children.end()),
              children);
  }
  // Every term again, in reverse: each keeps its id and nothing is added.
  for (TermId id = static_cast<TermId>(keys.size()); id-- > 0;) {
    const auto& [kind, symbol, value, mul, add, children] = keys[id];
    const std::string& name = u.symbols().Name(symbol);
    TermId again = kInvalidTerm;
    switch (kind) {
      case TermKind::kConstant: again = u.Constant(name); break;
      case TermKind::kInteger: again = u.Integer(value); break;
      case TermKind::kVariable: again = u.Variable(name); break;
      case TermKind::kCompound: again = u.Compound(name, children); break;
      case TermKind::kAffine: again = u.Affine(children[0], mul, add); break;
    }
    ASSERT_EQ(again, id);
  }
  EXPECT_EQ(u.terms().size(), keys.size());
}

TEST(TermArenaTest, ConcurrentReadersSeeWholeTermsOfEveryKind) {
  // Writers intern all five kinds at once while readers Get random ids
  // below size(). Every id's expected term (what it was interned with) is
  // recorded in a per-id model by the one writer that owns it: writers
  // intern disjoint terms, so no id has two writers. A reader checks every
  // field and every child of each id whose model entry is published.
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr int kOpsPerWriter = 12'000;
  constexpr uint32_t kChunk = TermArena::kChildChunkUnits;
  struct Expected {
    TermKind kind = TermKind::kConstant;
    bool ground = true;
    SymbolId symbol = 0;
    int64_t value = 0;
    int64_t mul = 0;
    int64_t add = 0;
    std::vector<TermId> children;
  };
  constexpr size_t kMaxTerms = 2 * kChunk + 8 + kWriters * kOpsPerWriter;
  std::vector<Expected> expected(kMaxTerms);
  std::vector<std::atomic<bool>> published(kMaxTerms);
  TermArena arena;
  // Records `id`'s model entry once; only the id's owner calls this.
  auto record = [&](TermId id, Expected e) {
    ASSERT_LT(id, kMaxTerms);
    if (published[id].load(std::memory_order_relaxed)) return;
    expected[id] = std::move(e);
    published[id].store(true, std::memory_order_release);
  };
  auto ground_of = [&](const std::vector<TermId>& children) {
    return std::all_of(children.begin(), children.end(),
                       [&](TermId c) { return expected[c].ground; });
  };

  // Before the race: the first kChunk - 1 unary compounds fill the child
  // array's first chunk but its last unit, so the next one's child list
  // starts at that last unit. A binary compound then no longer fits and
  // starts the second chunk, and a list longer than a chunk gets a block
  // of its own.
  constexpr SymbolId kPre = SymbolId{1} << 30;
  std::vector<TermId> unary;
  for (uint32_t i = 0; i < kChunk; ++i) {
    const TermId constant = arena.MakeConstant(kPre + i);
    ASSERT_NO_FATAL_FAILURE(record(
        constant, Expected{TermKind::kConstant, true, kPre + i, 0, 0, 0, {}}));
    const TermId compound = arena.MakeCompound(kPre, {constant});
    ASSERT_NO_FATAL_FAILURE(record(
        compound,
        Expected{TermKind::kCompound, true, kPre, 0, 0, 0, {constant}}));
    unary.push_back(compound);
  }
  const TermId* first_unit = arena.Get(unary[0]).children.data();
  for (uint32_t i = 0; i < kChunk; ++i) {
    ASSERT_EQ(arena.Get(unary[i]).children.data(), first_unit + i);
  }
  const std::vector<TermId> pair = {unary[0], unary[1]};
  ASSERT_NO_FATAL_FAILURE(
      record(arena.MakeCompound(kPre + 1, pair),
             Expected{TermKind::kCompound, true, kPre + 1, 0, 0, 0, pair}));
  std::vector<TermId> longer(unary.begin(), unary.end());
  longer.push_back(unary[0]);
  ASSERT_NO_FATAL_FAILURE(
      record(arena.MakeCompound(kPre + 2, longer),
             Expected{TermKind::kCompound, true, kPre + 2, 0, 0, 0, longer}));

  const std::vector<int64_t> extremes = {
      0, -1, 1, std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::max(), int64_t{1} << 32,
      -(int64_t{1} << 32)};
  std::atomic<int> readers_ready{0};
  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      while (readers_ready.load() < kReaders) std::this_thread::yield();
      std::mt19937_64 rng(300 + w);
      // Writer w owns: constants and variables with symbol % kWriters ==
      // w, integers with value & 3 == w (kWriters is 4), compounds with
      // functor % kWriters == w, and affine terms over its own variables.
      std::vector<TermId> mine;
      std::vector<TermId> variables;
      std::vector<int64_t> my_extremes;
      for (int64_t v : extremes) {
        if ((v & 3) == w) my_extremes.push_back(v);
      }
      for (int op = 0; op < kOpsPerWriter; ++op) {
        const unsigned pick = static_cast<unsigned>(rng() % 10);
        TermId id = kInvalidTerm;
        Expected e;
        if (pick < 3) {
          e.symbol = static_cast<SymbolId>(w + kWriters * (rng() % 4000));
          id = arena.MakeConstant(e.symbol);
        } else if (pick < 5) {
          e.kind = TermKind::kInteger;
          e.value = !my_extremes.empty() && rng() % 8 == 0
                        ? my_extremes[rng() % my_extremes.size()]
                        : static_cast<int64_t>((rng() & ~uint64_t{3}) |
                                               static_cast<uint64_t>(w));
          id = arena.MakeInteger(e.value);
        } else if (pick < 6) {
          e.kind = TermKind::kVariable;
          e.ground = false;
          e.symbol = static_cast<SymbolId>(w + kWriters * (rng() % 200));
          id = arena.MakeVariable(e.symbol);
          variables.push_back(id);
        } else if (pick < 9 && !mine.empty()) {
          e.kind = TermKind::kCompound;
          e.symbol = static_cast<SymbolId>(w + kWriters * (rng() % 3));
          e.children.resize(1 + rng() % 9);
          for (TermId& child : e.children) {
            child = mine[rng() % mine.size()];
          }
          e.ground = ground_of(e.children);
          id = arena.MakeCompound(e.symbol, e.children);
        } else if (!variables.empty()) {
          e.kind = TermKind::kAffine;
          e.ground = false;
          e.mul = 1 + static_cast<int64_t>(rng() % 5);
          e.add = static_cast<int64_t>(rng() % 11) - 5;
          e.children = {variables[rng() % variables.size()]};
          id = arena.MakeAffine(e.children[0], e.mul, e.add);
        } else {
          continue;
        }
        ASSERT_NO_FATAL_FAILURE(record(id, std::move(e)));
        mine.push_back(id);
      }
      writers_left.fetch_sub(1);
    });
  }
  std::atomic<size_t> checked{0};
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      std::mt19937_64 rng(400 + r);
      readers_ready.fetch_add(1);
      for (int i = 0; i < 2000 || writers_left.load() > 0; ++i) {
        const size_t terms = arena.size();
        const TermId id = static_cast<TermId>(rng() % terms);
        const TermView t = arena.Get(id);
        ASSERT_EQ(arena.IsGround(id), t.ground);
        if (!published[id].load(std::memory_order_acquire)) continue;
        const Expected& e = expected[id];
        ASSERT_EQ(t.kind, e.kind) << id;
        ASSERT_EQ(t.ground, e.ground) << id;
        ASSERT_EQ(t.symbol, e.symbol) << id;
        ASSERT_EQ(t.value, e.value) << id;
        ASSERT_EQ(t.mul, e.mul) << id;
        ASSERT_EQ(t.add, e.add) << id;
        ASSERT_EQ(std::vector<TermId>(t.children.begin(), t.children.end()),
                  e.children)
            << id;
        checked.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_GT(checked.load(), 0u);
  ASSERT_LE(arena.size(), kMaxTerms);
  for (TermId id = 0; id < arena.size(); ++id) {
    ASSERT_TRUE(published[id].load()) << id;
    const TermView t = arena.Get(id);
    const Expected& e = expected[id];
    ASSERT_EQ(t.kind, e.kind) << id;
    ASSERT_EQ(t.ground, e.ground) << id;
    ASSERT_EQ(t.symbol, e.symbol) << id;
    ASSERT_EQ(t.value, e.value) << id;
    ASSERT_EQ(t.mul, e.mul) << id;
    ASSERT_EQ(t.add, e.add) << id;
    ASSERT_EQ(std::vector<TermId>(t.children.begin(), t.children.end()),
              e.children)
        << id;
  }
}

TEST(TermArenaTest, HashConsingDeduplicatesGroundTerms) {
  Universe u;
  TermId a1 = u.Constant("john");
  TermId a2 = u.Constant("john");
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(u.Integer(42), u.Integer(42));
  EXPECT_NE(u.Integer(42), u.Integer(43));
  EXPECT_NE(u.Constant("a"), u.Variable("A"));
}

TEST(TermArenaTest, CompoundTermsAreStructural) {
  Universe u;
  TermId list1 = u.Cons(u.Constant("a"), u.NilTerm());
  TermId list2 = u.Cons(u.Constant("a"), u.NilTerm());
  TermId list3 = u.Cons(u.Constant("b"), u.NilTerm());
  EXPECT_EQ(list1, list2);
  EXPECT_NE(list1, list3);
  EXPECT_TRUE(u.terms().IsGround(list1));
}

TEST(TermArenaTest, GroundnessPropagates) {
  Universe u;
  TermId var = u.Variable("X");
  EXPECT_FALSE(u.terms().IsGround(var));
  TermId cell = u.Cons(var, u.NilTerm());
  EXPECT_FALSE(u.terms().IsGround(cell));
  TermId ground = u.Cons(u.Constant("a"), u.NilTerm());
  EXPECT_TRUE(u.terms().IsGround(ground));
}

TEST(TermArenaTest, AppendVariablesInFirstOccurrenceOrder) {
  Universe u;
  TermId t = u.Compound("f", {u.Variable("B"), u.Variable("A"),
                              u.Variable("B")});
  std::vector<SymbolId> vars;
  u.terms().AppendVariables(t, &vars);
  ASSERT_EQ(vars.size(), 2u);
  EXPECT_EQ(u.symbols().Name(vars[0]), "B");
  EXPECT_EQ(u.symbols().Name(vars[1]), "A");
}

TEST(TermArenaTest, ContainsVariable) {
  Universe u;
  TermId t = u.Compound("f", {u.Variable("X"), u.Constant("a")});
  EXPECT_TRUE(u.terms().ContainsVariable(t, u.Sym("X")));
  EXPECT_FALSE(u.terms().ContainsVariable(t, u.Sym("Y")));
}

TEST(TermArenaTest, AffineTermsCarryCoefficients) {
  Universe u;
  TermId var = u.Variable("I");
  TermId affine = u.Affine(var, 2, 1);
  const TermView data = u.terms().Get(affine);
  EXPECT_EQ(data.kind, TermKind::kAffine);
  EXPECT_EQ(data.mul, 2);
  EXPECT_EQ(data.add, 1);
  EXPECT_FALSE(data.ground);
  EXPECT_EQ(u.Affine(var, 2, 1), affine);
  EXPECT_NE(u.Affine(var, 2, 2), affine);
}

TEST(UniverseTest, FreshVariablesNeverCollide) {
  Universe u;
  u.Variable("I_0");
  TermId fresh = u.FreshVariable("I");
  const TermView data = u.terms().Get(fresh);
  EXPECT_NE(u.symbols().Name(data.symbol), "I_0");
}

TEST(UniverseTest, TermToStringRendersListsAndAffine) {
  Universe u;
  TermId list = u.MakeList({u.Constant("a"), u.Constant("b")});
  EXPECT_EQ(u.TermToString(list), "[a,b]");
  TermId partial = u.Cons(u.Constant("a"), u.Variable("T"));
  EXPECT_EQ(u.TermToString(partial), "[a|T]");
  TermId affine = u.Affine(u.Variable("K"), 2, 2);
  EXPECT_EQ(u.TermToString(affine), "K*2+2");
  TermId inc = u.Affine(u.Variable("I"), 1, 1);
  EXPECT_EQ(u.TermToString(inc), "I+1");
}

TEST(AdornmentTest, ParseAndRender) {
  std::optional<Adornment> a = Adornment::Parse("bf");
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->bound(0));
  EXPECT_FALSE(a->bound(1));
  EXPECT_EQ(a->bound_count(), 1u);
  EXPECT_EQ(a->ToString(), "bf");
  EXPECT_FALSE(Adornment::Parse("bx").has_value());
  EXPECT_TRUE(Adornment::AllFree(3).all_free());
  EXPECT_TRUE(Adornment::AllBound(2).all_bound());
}

TEST(PredicateTableTest, DeclareAndFind) {
  Universe u;
  PredId p = u.predicates().Declare(u.Sym("par"), 2, PredKind::kBase);
  EXPECT_EQ(u.predicates().info(p).arity, 2u);
  EXPECT_EQ(*u.predicates().Find(u.Sym("par"), 2), p);
  EXPECT_FALSE(u.predicates().Find(u.Sym("par"), 3).has_value());
  // Same name, different arity: a distinct predicate.
  PredId p3 = u.predicates().Declare(u.Sym("par"), 3, PredKind::kBase);
  EXPECT_NE(p, p3);
}

TEST(PredicateTableTest, GetOrDeclareUpgradesBaseToDerived) {
  Universe u;
  PredId p = u.predicates().GetOrDeclare(u.Sym("anc"), 2, PredKind::kBase);
  EXPECT_EQ(u.predicates().info(p).kind, PredKind::kBase);
  PredId q = u.predicates().GetOrDeclare(u.Sym("anc"), 2, PredKind::kDerived);
  EXPECT_EQ(p, q);
  EXPECT_EQ(u.predicates().info(p).kind, PredKind::kDerived);
}

TEST(UniverseTest, UniquePredicateNameAvoidsCollisions) {
  Universe u;
  u.predicates().Declare(u.Sym("magic_anc_bf"), 1, PredKind::kBase);
  SymbolId sym = u.UniquePredicateName("magic_anc_bf", 1);
  EXPECT_NE(u.symbols().Name(sym), "magic_anc_bf");
  SymbolId other = u.UniquePredicateName("magic_anc_bf", 2);
  EXPECT_EQ(u.symbols().Name(other), "magic_anc_bf");
}

}  // namespace
}  // namespace magic
