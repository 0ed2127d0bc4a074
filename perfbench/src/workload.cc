#include "workload.h"

#include <algorithm>
#include <unordered_map>

#include "ast/parser.h"
#include "common.h"
#include "eval/evaluator.h"

namespace perfbench {

namespace {

using magic::PredId;
using magic::TermId;

constexpr int kGridDepth = 10;
constexpr int kGridWidth = 6;

constexpr uint32_t kDagNodes = 125'000;
constexpr uint32_t kDagEdges = 1'000'000;
constexpr uint32_t kDagSpan = 16;  // a random edge jumps 1..span nodes
/// Seeds have between kMinAnswer and kMaxAnswer - 1 answers.
constexpr uint32_t kMinAnswer = 1000;
constexpr uint32_t kMaxAnswer = 5000;
/// write_mix's hot seeds have kHotAnswer +- kHotBand answers.
constexpr uint32_t kHotAnswer = 3000;
constexpr uint32_t kHotBand = 100;

constexpr size_t kFreshEdges = 2048;
constexpr size_t kProbeSeeds = 16;

template <typename T>
void Shuffle(std::vector<T>* items, Rng& rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng.Below(i)]);
  }
}

void PickProbeSeeds(Inputs* in) {
  for (size_t i = 0; i < std::min(kProbeSeeds, in->seeds.size()); ++i) {
    in->probe_seeds.push_back(i);
  }
}

std::optional<PredId> FindPred(const magic::Universe& u,
                               const std::string& name) {
  std::optional<magic::SymbolId> sym = u.symbols().Find(name);
  if (!sym.has_value()) return std::nullopt;
  return u.predicates().Find(*sym, 2);
}

/// The loading half of set-up: parse, intern, insert.
bool Load(const Inputs& in, Served* s, std::string* error) {
  s->universe = std::make_shared<magic::Universe>();
  magic::Result<magic::ParsedUnit> parsed =
      magic::ParseUnit(in.program_text, s->universe);
  if (!parsed.ok() || !parsed->query.has_value()) {
    *error = "program does not parse: " + parsed.status().ToString();
    return false;
  }
  s->program = std::move(parsed->program);
  s->exemplar = *parsed->query;
  s->node_terms.reserve(in.names.size());
  for (const std::string& name : in.names) {
    s->node_terms.push_back(s->universe->Constant(name));
  }
  s->db = std::make_unique<magic::Database>(s->universe);
  for (const Inputs::Rel& rel : in.relations) {
    std::optional<PredId> pred = FindPred(*s->universe, rel.pred);
    if (!pred.has_value()) {
      *error = "program does not declare " + rel.pred + "/2";
      return false;
    }
    s->preds.push_back(*pred);
    magic::Relation& relation = s->db->GetOrCreate(*pred);
    for (const Edge& edge : rel.edges) {
      const TermId tuple[2] = {s->node_terms[edge.first],
                               s->node_terms[edge.second]};
      relation.Insert(tuple);
    }
  }
  return true;
}

}  // namespace

Inputs MakeGridInputs(uint64_t seed) {
  Rng rng(seed);
  Inputs in;
  in.query_pred = "sg";
  auto id = [](int level, int column) {
    return static_cast<uint32_t>(level * kGridWidth + column);
  };
  for (int l = 0; l < kGridDepth; ++l) {
    for (int c = 0; c < kGridWidth; ++c) {
      in.names.push_back("n" + std::to_string(l) + "_" + std::to_string(c));
    }
  }
  in.relations = {{"up", {}}, {"down", {}}, {"flat", {}}};
  for (int l = 0; l < kGridDepth; ++l) {
    for (int c = 0; c < kGridWidth; ++c) {
      if (l + 1 < kGridDepth) {
        in.relations[0].edges.push_back({id(l + 1, c), id(l, c)});
        in.relations[1].edges.push_back({id(l, c), id(l + 1, c)});
      }
      if (c + 1 < kGridWidth) {
        in.relations[2].edges.push_back({id(l, c), id(l, c + 1)});
      }
    }
  }
  in.write_rel = 2;
  // Fresh flat edges between constants outside the grid: no grid node
  // reaches them, so writing them never changes an answer.
  for (size_t i = 0; i < kFreshEdges; ++i) {
    const auto a = static_cast<uint32_t>(in.names.size());
    in.names.push_back("w" + std::to_string(2 * i));
    in.names.push_back("w" + std::to_string(2 * i + 1));
    in.fresh_edges.push_back({a, a + 1});
  }
  for (int l = 0; l < kGridDepth / 2; ++l) {
    for (int c = 0; c < kGridWidth; ++c) in.seeds.push_back(id(l, c));
  }
  Shuffle(&in.seeds, rng);  // the seed decides which node is zipf rank 0
  PickProbeSeeds(&in);
  in.program_text =
      "sg(X,Y) :- flat(X,Y).\n"
      "sg(X,Y) :- up(X,Z1), sg(Z1,Z2), flat(Z2,Z3), sg(Z3,Z4), down(Z4,Y).\n"
      "?- sg(" +
      in.names[in.seeds[0]] + ", Y).\n";
  return in;
}

Inputs MakeDagInputs(uint64_t seed, size_t hot_seeds) {
  Rng rng(seed);
  Inputs in;
  in.query_pred = "reach";
  in.dag = true;
  in.last_node = kDagNodes - 1;
  in.names.reserve(kDagNodes);
  for (uint32_t i = 0; i < kDagNodes; ++i) {
    in.names.push_back("v" + std::to_string(i));
  }
  in.relations = {{"par", {}}};
  std::vector<Edge>& edges = in.relations[0].edges;
  edges.reserve(kDagEdges);
  // hops[a] bit h-1 marks the edge a -> a+h (h <= span), so distinctness
  // needs no hash set.
  std::vector<uint32_t> hops(kDagNodes, 0);
  for (uint32_t i = 0; i + 1 < kDagNodes; ++i) {
    edges.push_back({i, i + 1});
    hops[i] |= 1u;
  }
  while (edges.size() < kDagEdges) {
    const auto a = static_cast<uint32_t>(rng.Below(kDagNodes - kDagSpan - 1));
    const auto h = static_cast<uint32_t>(1 + rng.Below(kDagSpan));
    if ((hops[a] & (1u << (h - 1))) != 0) continue;
    hops[a] |= 1u << (h - 1);
    edges.push_back({a, a + h});
  }
  // Fresh edges jump further than any generated one, so they are absent;
  // being forward edges over the backbone, they never change reachability.
  std::vector<uint64_t> taken;
  while (in.fresh_edges.size() < kFreshEdges) {
    const auto a =
        static_cast<uint32_t>(rng.Below(kDagNodes - 3 * kDagSpan - 1));
    const auto h = static_cast<uint32_t>(kDagSpan + 1 +
                                         rng.Below(2 * kDagSpan));
    const uint64_t key = uint64_t{a} << 32 | h;
    if (std::find(taken.begin(), taken.end(), key) != taken.end()) continue;
    taken.push_back(key);
    in.fresh_edges.push_back({a, a + h});
  }
  // The hot set draws from a narrow answer-size band, so the cost of a
  // hit does not depend on which seed the zipf ranking puts first.
  const uint32_t lo = hot_seeds > 0 ? kHotAnswer - kHotBand : kMinAnswer;
  const uint32_t hi = hot_seeds > 0 ? kHotAnswer + kHotBand : kMaxAnswer;
  for (uint32_t t = lo; t < hi; ++t) in.seeds.push_back(in.last_node - t);
  Shuffle(&in.seeds, rng);
  if (hot_seeds > 0 && hot_seeds < in.seeds.size()) in.seeds.resize(hot_seeds);
  PickProbeSeeds(&in);
  in.program_text =
      "reach(X,Y) :- par(X,Y).\n"
      "reach(X,Y) :- reach(X,Z), par(Z,Y).\n"
      "?- reach(" +
      in.names[in.seeds[0]] + ", Y).\n";
  return in;
}

void ComputeOracle(Inputs* in) {
  if (in->dag) return;
  Served s;
  std::string error;
  if (!Load(*in, &s, &error)) return;  // SetUp reports the same error
  magic::Evaluator evaluator;  // semi-naive over the original program
  magic::EvalResult result = evaluator.Run(s.program, *s.db);
  std::optional<PredId> pred = FindPred(*s.universe, in->query_pred);
  in->expected.assign(in->seeds.size(), {});
  if (!pred.has_value() || !result.status.ok()) return;
  auto it = result.idb.find(*pred);
  if (it == result.idb.end()) return;
  std::unordered_map<TermId, size_t> seed_index;
  for (size_t i = 0; i < in->seeds.size(); ++i) {
    seed_index[s.node_terms[in->seeds[i]]] = i;
  }
  const magic::Relation& rel = it->second;
  for (size_t row = 0; row < rel.size(); ++row) {
    auto tuple = rel.Row(row);
    auto found = seed_index.find(tuple[0]);
    if (found == seed_index.end()) continue;
    in->expected[found->second].push_back(s.universe->TermToString(tuple[1]));
  }
  for (auto& names : in->expected) std::sort(names.begin(), names.end());
}

std::string Served::QueryText() const {
  const magic::Universe& u = *universe;
  std::string text =
      u.symbols().Name(u.predicates().info(exemplar.goal.pred).name) + "(";
  for (size_t i = 0; i < exemplar.goal.args.size(); ++i) {
    if (i > 0) text += ", ";
    text += u.TermToString(exemplar.goal.args[i]);
  }
  return text + ")";
}

std::unique_ptr<Served> SetUp(const Inputs& in, std::string* error) {
  auto s = std::make_unique<Served>();
  const int64_t t0 = NowNs();
  if (!Load(in, s.get(), error)) return nullptr;
  const int64_t t1 = NowNs();
  for (PredId pred : s->preds) {
    const magic::Relation* rel = s->db->Find(pred);
    if (rel == nullptr || rel->size() == 0) continue;
    std::vector<uint32_t> rows;
    const TermId key = rel->Row(0)[0];
    rel->Probe(/*mask=*/1, {&key, 1}, 0, rel->size(), &rows);
  }
  const int64_t t2 = NowNs();
  s->service = std::make_unique<magic::QueryService>(s->program, *s->db);
  magic::QueryRequest request;
  request.query = s->exemplar;
  const int64_t t3 = NowNs();
  magic::Result<magic::QueryService::FormHandle> handle =
      s->service->Prepare(request);
  const int64_t t4 = NowNs();
  if (!handle.ok()) {
    *error = "Prepare failed: " + handle.status().ToString();
    return nullptr;
  }
  s->handle = *handle;
  magic::Result<magic::PreparedQueryForm> form =
      magic::PreparedQueryForm::Prepare(s->program, s->exemplar);
  const int64_t t5 = NowNs();
  if (!form.ok()) {
    *error = "PreparedQueryForm::Prepare failed: " + form.status().ToString();
    return nullptr;
  }
  s->form.emplace(std::move(form).value());
  s->snapshot = std::make_unique<magic::Database>(*s->db);
  s->load_s = static_cast<double>(t1 - t0) / 1e9;
  s->index_build_ms = static_cast<double>(t2 - t1) / 1e6;
  s->prepare_ms = static_cast<double>(t4 - t3) / 1e6;
  s->rewrite_ms = static_cast<double>(t5 - t4) / 1e6;
  s->rewritten_rules = s->form->rewritten().program.rules().size();
  return s;
}

bool StartServer(Served* s, std::string* error) {
  s->server = std::make_unique<magic::net::MagicServer>(
      s->universe, s->program, s->service.get());
  magic::Status st = s->server->Start();
  if (!st.ok()) {
    *error = "server start failed: " + st.ToString();
    return false;
  }
  return true;
}

void IndexNodes(const Inputs& in, Served* s) {
  s->node_of_term.assign(s->universe->terms().size(), -1);
  for (size_t i = 0; i < in.names.size(); ++i) {
    s->node_of_term[s->node_terms[i]] = static_cast<int32_t>(i);
  }
}

namespace {

/// Exact set check for a DAG answer: every node k+1..last exactly once.
/// `node_of(i)` maps the i-th answer to a node id (or -1).
template <typename NodeOf>
bool CheckReach(const Inputs& in, size_t seed_index, size_t count,
                NodeOf node_of) {
  const uint32_t k = in.seeds[seed_index];
  if (count != in.last_node - k) return false;
  // Stamped membership marks: no clearing between checks.
  thread_local std::vector<uint32_t> stamp;
  thread_local uint32_t epoch = 0;
  if (stamp.size() != in.last_node + 1 || ++epoch == 0) {
    stamp.assign(in.last_node + 1, 0);
    epoch = 1;
  }
  for (size_t i = 0; i < count; ++i) {
    const int64_t n = node_of(i);
    if (n <= static_cast<int64_t>(k) || n > in.last_node) return false;
    if (stamp[n] == epoch) return false;
    stamp[n] = epoch;
  }
  return true;
}

}  // namespace

bool CheckTuples(const Inputs& in, const Served& s, size_t seed_index,
                 const std::vector<std::vector<TermId>>& tuples) {
  if (in.dag) {
    return CheckReach(in, seed_index, tuples.size(), [&](size_t i) -> int64_t {
      const std::vector<TermId>& t = tuples[i];
      if (t.size() != 1 || t[0] >= s.node_of_term.size()) return -1;
      return s.node_of_term[t[0]];
    });
  }
  std::vector<std::string> names;
  names.reserve(tuples.size());
  for (const std::vector<TermId>& t : tuples) {
    if (t.size() != 1) return false;
    names.push_back(s.universe->TermToString(t[0]));
  }
  std::sort(names.begin(), names.end());
  return names == in.expected[seed_index];
}

bool CheckLines(const Inputs& in, size_t seed_index,
                const std::vector<std::string>& lines) {
  if (in.dag) {
    return CheckReach(in, seed_index, lines.size(), [&](size_t i) -> int64_t {
      const std::string& line = lines[i];
      if (line.size() < 2 || line.size() > 10 || line[0] != 'v') return -1;
      int64_t n = 0;
      for (size_t j = 1; j < line.size(); ++j) {
        if (line[j] < '0' || line[j] > '9') return -1;
        n = n * 10 + (line[j] - '0');
      }
      return n;
    });
  }
  std::vector<std::string> sorted = lines;
  std::sort(sorted.begin(), sorted.end());
  return sorted == in.expected[seed_index];
}

}  // namespace perfbench
