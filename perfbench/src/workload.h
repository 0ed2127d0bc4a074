// The benchmark's inputs (generated from --seed), the expected answers they
// imply, and one set-up instance of the system under test.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/prepared.h"
#include "engine/query_service.h"
#include "net/server.h"

namespace perfbench {

using Edge = std::pair<uint32_t, uint32_t>;

/// Everything a workload feeds the program: a program text, node names,
/// binary base relations over node ids, the query seed set, and fresh edges
/// for the write path. Generating it is not part of set-up time.
struct Inputs {
  std::string program_text;  // rules plus one `?- q(c, Y).` exemplar
  std::string query_pred;
  std::vector<std::string> names;  // node constants, indexed by node id
  struct Rel {
    std::string pred;
    std::vector<Edge> edges;
  };
  std::vector<Rel> relations;
  size_t write_rel = 0;  // the relation every write touches
  /// Edges absent from the write relation whose insertion or retraction
  /// leaves every answer unchanged; writes and layer probes consume them.
  std::vector<Edge> fresh_edges;
  std::vector<uint32_t> seeds;  // query constants (node ids)
  /// Indices into `seeds`: the fixed subset the probe pass asks.
  std::vector<size_t> probe_seeds;

  /// Expected answers. A chain-backed DAG (`dag`): the answer for node k is
  /// exactly the nodes k+1 .. last_node. Otherwise `expected[i]` is the
  /// sorted answer names for seeds[i], filled by ComputeOracle.
  bool dag = false;
  uint32_t last_node = 0;
  std::vector<std::vector<std::string>> expected;
};

/// wire_hot: a same-generation grid (10 levels x 6 columns) queried from
/// its 30 upper-half nodes.
Inputs MakeGridInputs(uint64_t seed);

/// eval_cold and write_mix: a 10^6-edge forward DAG over 125k nodes with a
/// backbone chain, queried with left-linear reachability. Seeds have
/// 1000-4999 answers; `hot_seeds` > 0 instead picks that many seeds with
/// 2900-3099 answers (write_mix's zipf set).
Inputs MakeDagInputs(uint64_t seed, size_t hot_seeds);

/// Fills `inputs->expected` with a semi-naive evaluation of the original
/// program over a private load of the inputs (grid inputs only).
void ComputeOracle(Inputs* inputs);

/// One set-up instance: the loaded database, the service over it, the
/// benchmark's own prepared form, and (when started) a wire server.
/// Member order is destruction order in reverse: the server stops before
/// the service, which goes before the database and program.
struct Served {
  std::shared_ptr<magic::Universe> universe;
  magic::Program program;
  magic::Query exemplar;
  std::unique_ptr<magic::Database> db;
  std::vector<magic::PredId> preds;  // by Inputs::relations index
  std::vector<magic::TermId> node_terms;
  std::unique_ptr<magic::QueryService> service;
  magic::QueryService::FormHandle handle;
  std::optional<magic::PreparedQueryForm> form;
  /// A structural-sharing copy of the loaded database: the version the
  /// benchmark's own eval replays read while writers move the base on.
  std::unique_ptr<magic::Database> snapshot;
  std::unique_ptr<magic::net::MagicServer> server;

  /// TermId -> node id (-1 for other terms); built after set-up timing.
  std::vector<int32_t> node_of_term;

  double load_s = 0;
  double index_build_ms = 0;
  double prepare_ms = 0;
  double rewrite_ms = 0;
  size_t rewritten_rules = 0;

  magic::TermId term(uint32_t node) const { return node_terms[node]; }
  magic::PredId write_pred(const Inputs& in) const {
    return preds[in.write_rel];
  }
  /// Query text of the exemplar (for PREPARE over the wire).
  std::string QueryText() const;
};

/// Loads the inputs, builds every base relation's first-column index,
/// builds the service, and prepares the query form (service and own).
/// Returns null and fills `error` on failure.
std::unique_ptr<Served> SetUp(const Inputs& in, std::string* error);

/// Starts the wire server on an ephemeral loopback port.
bool StartServer(Served* served, std::string* error);

/// Builds `node_of_term` (the answer checker's lookup table).
void IndexNodes(const Inputs& in, Served* served);

/// Checks one reply against the expected answer of seeds[seed_index]:
/// tuples from the in-process tiers, lines from a wire reply. Thread-safe.
bool CheckTuples(const Inputs& in, const Served& served, size_t seed_index,
                 const std::vector<std::vector<magic::TermId>>& tuples);
bool CheckLines(const Inputs& in, size_t seed_index,
                const std::vector<std::string>& lines);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
