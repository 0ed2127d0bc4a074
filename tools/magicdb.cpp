// magicdb — command-line driver for the library.
//
//   magicdb <subcommand> [options] <program.dl>
//
// Subcommands:
//   eval    compile and run one query (from a ?- clause or --query) through
//           the single-shot QueryEngine; --explain prints the rewritten
//           program, --safety the Section 10 static verdicts
//   bench   serve every query in --batch FILE concurrently through
//           QueryService (answers stream per query, in derivation order);
//           --apply FILE mutates the LIVE service between two passes
//   apply   apply +fact/-fact mutation lines (--file FILE, default stdin)
//           to a service through the write seam and report the counts
//   repl    interactive loop on stdin: "+fact." inserts, "-fact." retracts
//           (both via ApplyWrites, no restart), anything else is a query.
//           New constants are fine; lines naming a predicate declared
//           after startup are rejected with a diagnostic naming it
//   serve   TCP server speaking the magicdb line protocol (PREPARE/QUERY/
//           STREAM/APPLY/STATS/METRICS/CLOSE) — see src/net/session.h for
//           the grammar; magicdb-cli is the matching client
//
// Options (subcommand-dependent):
//   --query "anc(john, Y)"   eval: query overriding a ?- clause
//   --batch FILE             bench: query file, one query per line
//   --apply FILE             bench: mutations applied between two passes
//   --file FILE              apply: mutation file (default: stdin)
//   --threads N              worker threads (default: hardware)
//   --strategy NAME          naive | seminaive | gms | gsms | gc | gsc |
//                            gc+sj | gsc+sj | topdown     (default gsms)
//   --sip NAME               full | chain | head-only | empty | greedy
//   --guards MODE            full | prop42 | ph-only      (default prop42)
//   --facts DIR              load <pred>.facts TSV files from DIR
//   --explain                eval: print the rewritten program
//   --profile                eval: print the per-rule fixpoint profile
//                            (iterations, firings, new/duplicate facts,
//                            join probes, delta rows) EXPLAIN-style
//   --safety                 eval: print static safety verdicts
//   --check-safety           eval: refuse statically rejected strategies
//   --stats                  print serving statistics
//   --max-facts N            evaluation budget (default 10M)
//   --limit N                stop each query after N answer rows
//   --deadline-ms N          per-query evaluation deadline
//   --cache-bytes N          AnswerCache byte budget (default 8 MiB)
//   --no-cache               disable cross-query answer memoization
//   --host H / --port P      serve: bind address (default 127.0.0.1:4617;
//                            port 0 binds ephemeral and prints the choice)
//   --max-connections N      serve: socket-level admission bound
//
// Exit codes come from the one shared wire-code table (util/status.h) —
// the same table `magicdb serve` puts on the wire and magicdb-cli turns back
// into exit codes: 0 success (hitting --limit included), 1 internal,
// 2 usage, 3 bad request, 4 deadline expired, 5 cancelled, 6 overloaded,
// 7 protocol error.
//
// Examples:
//   magicdb eval --strategy gms --explain --stats family.dl
//   magicdb bench --batch queries.txt --threads 8 --stats family.dl
//   magicdb eval --query "anc(c0, Y)" --limit 1 --deadline-ms 50 family.dl
//   magicdb bench --batch queries.txt --apply edits.txt family.dl
//   printf '+par(c3,c4).\nanc(c0, Y)\n' | magicdb repl family.dl
//   magicdb serve --port 0 family.dl

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "analysis/safety.h"
#include "ast/parser.h"
#include "ast/printer.h"
#include "engine/query_engine.h"
#include "engine/query_service.h"
#include "net/bootstrap.h"
#include "storage/fact_io.h"
#include "storage/write_batch.h"
#include "util/stopwatch.h"

namespace {

using namespace magic;

struct Args {
  std::string cmd;
  std::string program_path;
  std::string query_text;
  std::string batch_path;
  std::string apply_path;
  std::string mutation_path;  // apply --file
  std::string facts_dir;
  size_t threads = 0;  // 0 = hardware concurrency
  size_t cache_bytes = QueryServiceOptions{}.cache_bytes;
  EngineOptions options;
  QueryLimits limits;
  net::ServerOptions server;
  bool explain = false;
  bool profile = false;
  bool safety = false;
  bool stats = false;
  bool ok = true;
  std::string error;
};

bool In(const std::string& cmd, std::initializer_list<const char*> cmds) {
  for (const char* c : cmds) {
    if (cmd == c) return true;
  }
  return false;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc < 2) {
    args.ok = false;
    args.error = "no subcommand given";
    return args;
  }
  args.cmd = argv[1];
  if (!In(args.cmd, {"eval", "bench", "apply", "repl", "serve"})) {
    args.ok = false;
    args.error = "unknown subcommand: " + args.cmd;
    return args;
  }
  args.server.port = 4617;  // serve's default; --port 0 binds ephemeral
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      args.ok = false;
      args.error = std::string("missing value for ") + argv[i];
      return nullptr;
    }
    return argv[++i];
  };
  // Marks the current option as belonging to `cmds` only; a flag used
  // under the wrong subcommand is a usage error, not silently ignored.
  auto only = [&](int i, std::initializer_list<const char*> cmds) {
    if (In(args.cmd, cmds)) return true;
    args.ok = false;
    args.error = std::string(argv[i]) + " is not valid for subcommand " +
                 args.cmd;
    return false;
  };
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--query") {
      if (!only(i, {"eval"})) break;
      if (const char* v = need_value(i)) args.query_text = v;
    } else if (arg == "--batch") {
      if (!only(i, {"bench"})) break;
      if (const char* v = need_value(i)) args.batch_path = v;
    } else if (arg == "--apply") {
      if (!only(i, {"bench"})) break;
      if (const char* v = need_value(i)) args.apply_path = v;
    } else if (arg == "--file") {
      if (!only(i, {"apply"})) break;
      if (const char* v = need_value(i)) args.mutation_path = v;
    } else if (arg == "--threads") {
      if (!only(i, {"bench", "apply", "repl", "serve"})) break;
      if (const char* v = need_value(i)) {
        char* end = nullptr;
        unsigned long long threads = std::strtoull(v, &end, 10);
        if (*v == '\0' || *v == '-' || *end != '\0' || threads > 4096) {
          args.ok = false;
          args.error = "bad --threads value: " + std::string(v);
        } else {
          args.threads = static_cast<size_t>(threads);
        }
      }
    } else if (arg == "--strategy") {
      if (const char* v = need_value(i)) {
        // One shared name<->enum table with the library (StrategyName's
        // inverse), so the CLI cannot drift from the engine.
        if (std::optional<Strategy> strategy = StrategyFromName(v)) {
          args.options.strategy = *strategy;
        } else {
          args.ok = false;
          args.error = "unknown strategy: " + std::string(v);
        }
      }
    } else if (arg == "--sip") {
      if (const char* v = need_value(i)) args.options.sip = v;
    } else if (arg == "--guards") {
      if (const char* v = need_value(i)) {
        std::string mode = v;
        if (mode == "full") {
          args.options.guard_mode = GuardMode::kFull;
        } else if (mode == "prop42") {
          args.options.guard_mode = GuardMode::kProp42;
        } else if (mode == "ph-only") {
          args.options.guard_mode = GuardMode::kPhOnly;
        } else {
          args.ok = false;
          args.error = "unknown guard mode: " + mode;
        }
      }
    } else if (arg == "--facts") {
      if (const char* v = need_value(i)) args.facts_dir = v;
    } else if (arg == "--explain") {
      if (!only(i, {"eval"})) break;
      args.explain = true;
      args.options.explain = true;
    } else if (arg == "--profile") {
      if (!only(i, {"eval"})) break;
      args.profile = true;
    } else if (arg == "--safety") {
      if (!only(i, {"eval"})) break;
      args.safety = true;
    } else if (arg == "--check-safety") {
      if (!only(i, {"eval"})) break;
      args.options.static_safety_check = true;
    } else if (arg == "--stats") {
      args.stats = true;
    } else if (arg == "--max-facts") {
      if (const char* v = need_value(i)) {
        args.options.eval.max_facts = std::strtoull(v, nullptr, 10);
      }
    } else if (arg == "--limit") {
      if (!only(i, {"eval", "bench", "repl"})) break;
      if (const char* v = need_value(i)) {
        args.limits.row_limit = std::strtoull(v, nullptr, 10);
      }
    } else if (arg == "--deadline-ms") {
      if (!only(i, {"eval", "bench", "repl"})) break;
      if (const char* v = need_value(i)) {
        args.limits.deadline =
            std::chrono::milliseconds(std::strtoull(v, nullptr, 10));
      }
    } else if (arg == "--cache-bytes") {
      if (!only(i, {"bench", "repl", "serve"})) break;
      if (const char* v = need_value(i)) {
        char* end = nullptr;
        unsigned long long bytes = std::strtoull(v, &end, 10);
        if (*v == '\0' || *v == '-' || *end != '\0') {
          args.ok = false;
          args.error = "bad --cache-bytes value: " + std::string(v);
        } else {
          args.cache_bytes = static_cast<size_t>(bytes);
        }
      }
    } else if (arg == "--no-cache") {
      if (!only(i, {"bench", "repl", "serve"})) break;
      args.cache_bytes = 0;
    } else if (arg == "--host") {
      if (!only(i, {"serve"})) break;
      if (const char* v = need_value(i)) args.server.host = v;
    } else if (arg == "--port") {
      if (!only(i, {"serve"})) break;
      if (const char* v = need_value(i)) {
        args.server.port = static_cast<uint16_t>(std::strtoul(v, nullptr, 10));
      }
    } else if (arg == "--max-connections") {
      if (!only(i, {"serve"})) break;
      if (const char* v = need_value(i)) {
        args.server.max_connections = std::strtoull(v, nullptr, 10);
      }
    } else if (arg.rfind("--", 0) == 0) {
      args.ok = false;
      args.error = "unknown option: " + arg;
    } else {
      args.program_path = arg;
    }
  }
  if (args.ok && args.program_path.empty()) {
    args.ok = false;
    args.error = "no program file given";
  }
  if (args.ok && args.cmd == "bench" && args.batch_path.empty()) {
    args.ok = false;
    args.error = "bench needs --batch FILE";
  }
  return args;
}

/// Exit code for a plain Status, through the shared wire-code table.
int ExitFor(const Status& status) {
  return ExitCodeFor(ToWireCode(status.code()));
}

/// Exit code for a served answer: the outcome (truncated/deadline/...)
/// decides before the status code does, exactly like the wire head token.
int ExitForAnswer(const QueryAnswer& answer) {
  return ExitCodeFor(ToWireCode(answer.outcome, answer.status.code()));
}

struct PassTotals {
  int failed = 0;
  int truncated = 0;
  size_t rows = 0;
  int exit_code = 0;  // first failure's table exit code
};

/// Prints one tuple, tab-separated.
void PrintTuple(const Universe& u, const std::vector<TermId>& tuple) {
  std::string row;
  for (TermId term : tuple) {
    if (!row.empty()) row += "\t";
    row += u.TermToString(term);
  }
  std::printf("%s\n", row.c_str());
}

/// Serves every query of the batch concurrently through `service` and
/// prints each query's answers in input order, separated by `% query:`
/// headers. Each query streams through an AnswerCursor: rows print
/// chunk-by-chunk as the fixpoint derives them (derivation order,
/// deduplicated, not sorted) instead of waiting for the full materialized
/// answer set.
PassTotals ServeBatchPass(QueryService& service, const Args& args,
                          const std::vector<std::string>& lines,
                          const std::vector<Query>& queries, Universe& u) {
  std::vector<AnswerCursor> cursors;
  cursors.reserve(queries.size());
  for (const Query& query : queries) {
    QueryRequest request;
    request.query = query;
    request.limits = args.limits;
    cursors.push_back(service.Stream(request));
  }

  constexpr size_t kChunk = 64;
  PassTotals totals;
  std::vector<std::vector<TermId>> chunk;
  for (size_t i = 0; i < cursors.size(); ++i) {
    std::printf("%% query: %s\n", lines[i].c_str());
    std::vector<int> free_positions = QueryFreePositions(u, queries[i]);
    size_t rows = 0;
    while (cursors[i].Next(kChunk, &chunk)) {
      rows += chunk.size();
      if (free_positions.empty()) continue;  // boolean query: count only
      for (const auto& tuple : chunk) PrintTuple(u, tuple);
    }
    const QueryAnswer& answer = cursors[i].Finish();
    if (!answer.status.ok()) {
      std::printf("error: %s\n", answer.status.ToString().c_str());
      ++totals.failed;
      if (totals.exit_code == 0) totals.exit_code = ExitForAnswer(answer);
      continue;
    }
    if (free_positions.empty()) {
      std::printf("%s\n", rows == 0 ? "false" : "true");
    }
    if (answer.truncated()) {
      std::printf("%% truncated after %zu row(s)\n", rows);
      ++totals.truncated;
    }
    totals.rows += rows;
  }
  return totals;
}

/// Reads an --apply file into one WriteBatch ("+fact." inserts, "-fact."
/// retracts, bare facts insert; blank lines and % comments skip). The line
/// grammar is ParseMutationLine (storage/write_batch.h) — the same parser
/// the repl and the wire APPLY verb use.
bool LoadApplyFile(std::istream& in, const std::string& label,
                   const std::shared_ptr<Universe>& universe,
                   WriteBatch* batch) {
  std::string line;
  while (std::getline(in, line)) {
    size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '%') continue;
    if (Status st = ParseMutationLine(line.substr(start), universe, batch);
        !st.ok()) {
      std::fprintf(stderr, "magicdb: bad mutation \"%s\" (%s): %s\n",
                   line.c_str(), label.c_str(), st.message().c_str());
      return false;
    }
  }
  return true;
}

int RunBench(const Args& args, const ParsedUnit& parsed, Database& db) {
  std::ifstream in(args.batch_path);
  if (!in) {
    std::fprintf(stderr, "magicdb: cannot open batch file %s\n",
                 args.batch_path.c_str());
    return ExitCodeFor(WireCode::kInvalidArgument);
  }
  std::vector<std::string> lines;
  std::vector<Query> queries;
  std::string line;
  while (std::getline(in, line)) {
    size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '%') continue;
    std::string text = line.substr(start);
    auto q = ParseUnit("?- " + text + ".", parsed.program.universe());
    if (!q.ok() || !q->query.has_value()) {
      std::fprintf(stderr, "magicdb: bad batch query \"%s\": %s\n",
                   text.c_str(),
                   q.ok() ? "not a query" : q.status().ToString().c_str());
      return ExitCodeFor(WireCode::kInvalidArgument);
    }
    lines.push_back(std::move(text));
    queries.push_back(*q->query);
  }
  if (queries.empty()) {
    std::fprintf(stderr, "magicdb: batch file has no queries\n");
    return ExitCodeFor(WireCode::kInvalidArgument);
  }

  // The --apply mutations are parsed up front (before the service exists)
  // because parsing may intern new symbols into the shared Universe —
  // legal at any time now that the tables are internally synchronized,
  // but new predicate *declarations* are only safe while no compiled
  // plan overlays the table.
  WriteBatch edits;
  if (!args.apply_path.empty()) {
    std::ifstream apply_in(args.apply_path);
    if (!apply_in) {
      std::fprintf(stderr, "magicdb: cannot open apply file %s\n",
                   args.apply_path.c_str());
      return ExitCodeFor(WireCode::kInvalidArgument);
    }
    if (!LoadApplyFile(apply_in, args.apply_path, parsed.program.universe(),
                       &edits)) {
      return ExitCodeFor(WireCode::kInvalidArgument);
    }
  }

  QueryServiceOptions service_options;
  service_options.num_threads = args.threads;
  service_options.cache_bytes = args.cache_bytes;
  service_options.engine = args.options;
  QueryService service(parsed.program, db, service_options);

  Stopwatch watch;
  PassTotals totals = ServeBatchPass(service, args, lines, queries,
                                     *parsed.program.universe());
  size_t passes = 1;
  if (!args.apply_path.empty()) {
    // Apply to the LIVE service — no teardown, no rebuild. The write
    // publishes a new database version (without waiting on in-flight
    // work) and retires every cached answer keyed to the old one; the
    // second pass shows the new database.
    auto applied = service.ApplyWrites(edits);
    if (!applied.ok()) {
      std::fprintf(stderr, "magicdb: apply failed: %s\n",
                   applied.status().ToString().c_str());
      return ExitFor(applied.status());
    }
    std::printf("%% applied %s: +%zu -%zu fact(s), %zu relation(s) mutated\n",
                args.apply_path.c_str(), applied->inserted,
                applied->retracted, applied->relations_mutated);
    PassTotals second = ServeBatchPass(service, args, lines, queries,
                                       *parsed.program.universe());
    totals.failed += second.failed;
    totals.truncated += second.truncated;
    totals.rows += second.rows;
    if (totals.exit_code == 0) totals.exit_code = second.exit_code;
    passes = 2;
  }
  double seconds = watch.ElapsedSeconds();
  if (args.stats) {
    // Counter details come from the one shared reporting path
    // (Stats::Summary) so this tool never re-aggregates by hand.
    QueryService::Stats stats = service.stats();
    std::fprintf(stderr,
                 "%% %zu quer(ies) on %zu thread(s) in %.3f ms (%.0f qps), "
                 "%zu row(s), %d truncated, %d failed\n%% %s\n",
                 queries.size() * passes, service.num_threads(),
                 seconds * 1e3,
                 static_cast<double>(queries.size() * passes) / seconds,
                 totals.rows, totals.truncated, totals.failed,
                 stats.Summary().c_str());
  }
  return totals.exit_code;
}

/// Standalone mutation pass: parse every line (file or stdin), apply them
/// as ONE WriteBatch through the live service's write seam, report counts.
int RunApply(const Args& args, const ParsedUnit& parsed, Database& db) {
  WriteBatch batch;
  if (!args.mutation_path.empty()) {
    std::ifstream in(args.mutation_path);
    if (!in) {
      std::fprintf(stderr, "magicdb: cannot open %s\n",
                   args.mutation_path.c_str());
      return ExitCodeFor(WireCode::kInvalidArgument);
    }
    if (!LoadApplyFile(in, args.mutation_path, parsed.program.universe(),
                       &batch)) {
      return ExitCodeFor(WireCode::kInvalidArgument);
    }
  } else if (!LoadApplyFile(std::cin, "stdin", parsed.program.universe(),
                            &batch)) {
    return ExitCodeFor(WireCode::kInvalidArgument);
  }

  QueryServiceOptions service_options;
  service_options.num_threads = args.threads;
  service_options.engine = args.options;
  QueryService service(parsed.program, db, service_options);
  auto applied = service.ApplyWrites(batch);
  if (!applied.ok()) {
    std::fprintf(stderr, "magicdb: apply failed: %s\n",
                 applied.status().ToString().c_str());
    return ExitFor(applied.status());
  }
  std::printf("%% applied: +%zu -%zu fact(s), %zu cleared, "
              "%zu relation(s) mutated\n",
              applied->inserted, applied->retracted, applied->cleared,
              applied->relations_mutated);
  if (args.stats) {
    std::fprintf(stderr, "%% %s\n", service.stats().Summary().c_str());
  }
  return ExitCodeFor(WireCode::kOk);
}

/// Interactive serving loop: queries and EDB mutations interleave on one
/// live service. Mutation lines ("+fact." / "-fact.") go through
/// ApplyWrites — the sanctioned in-band write path — so every later query
/// sees the mutated database, warm cache or not.
int RunRepl(const Args& args, const ParsedUnit& parsed, Database& db) {
  QueryServiceOptions service_options;
  service_options.num_threads = args.threads;
  service_options.cache_bytes = args.cache_bytes;
  service_options.engine = args.options;
  QueryService service(parsed.program, db, service_options);
  Universe& u = *parsed.program.universe();

  // Predicate freeze: compiled plans overlay the base predicate table, so
  // a predicate declared mid-session reuses a numeric id a live plan
  // already owns. New constants are fine — hash-consed terms no plan can
  // alias — so inserting fresh nodes works; introducing a fresh *relation
  // name* needs a restart. CheckFrozenPredicate (the same check the wire
  // APPLY verb runs) enforces by id range against the size frozen here,
  // NOT by detecting table growth: a stray declaration is permanent (and
  // harmless while unused), so the same line resubmitted must still be
  // rejected — and the diagnostic names the offending predicate.
  const size_t frozen_preds = u.predicates().size();

  int exit_code = 0;
  auto fail = [&](const Status& status) {
    std::printf("error: %s\n", status.ToString().c_str());
    if (exit_code == 0) exit_code = ExitFor(status);
  };
  std::string line;
  while (std::getline(std::cin, line)) {
    size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '%') continue;
    std::string text = line.substr(start);
    if (text[0] == '+' || text[0] == '-') {
      WriteBatch batch;
      if (Status st = ParseMutationLine(text, parsed.program.universe(),
                                        &batch);
          !st.ok()) {
        fail(st);
        continue;
      }
      if (Status st = CheckFrozenPredicates(u, batch, frozen_preds);
          !st.ok()) {
        fail(st);
        continue;
      }
      auto applied = service.ApplyWrites(batch);
      if (!applied.ok()) {
        fail(applied.status());
        continue;
      }
      std::printf("%% applied: +%zu -%zu fact(s)\n", applied->inserted,
                  applied->retracted);
      continue;
    }
    size_t last = text.find_last_not_of(" \t\r.");
    if (last == std::string::npos) continue;
    text.resize(last + 1);
    auto q = ParseUnit("?- " + text + ".", parsed.program.universe());
    if (!q.ok() || !q->query.has_value()) {
      if (q.ok()) {
        fail(Status::InvalidArgument("bad query \"" + text +
                                     "\": not a query"));
      } else {
        fail(q.status());
      }
      continue;
    }
    if (Status st = CheckFrozenPredicate(u, q->query->goal.pred,
                                         frozen_preds);
        !st.ok()) {
      fail(st);
      continue;
    }
    std::printf("%% query: %s\n", text.c_str());
    QueryRequest request;
    request.query = *q->query;
    request.limits = args.limits;
    QueryAnswer answer = service.Submit(request).get();
    if (!answer.status.ok()) {
      std::printf("error: %s\n", answer.status.ToString().c_str());
      if (exit_code == 0) exit_code = ExitForAnswer(answer);
      continue;
    }
    if (QueryFreePositions(u, request.query).empty()) {
      std::printf("%s\n", answer.tuples.empty() ? "false" : "true");
    } else {
      for (const auto& tuple : answer.tuples) PrintTuple(u, tuple);
    }
    if (answer.truncated()) {
      std::printf("%% truncated after %zu row(s)\n", answer.tuples.size());
    }
  }
  if (args.stats) {
    std::fprintf(stderr, "%% %s\n", service.stats().Summary().c_str());
  }
  return exit_code;
}

int RunEval(const Args& args, const ParsedUnit& parsed, Database& db,
            const std::string& source_text) {
  std::optional<Query> query = parsed.query;
  if (!args.query_text.empty()) {
    auto q = ParseUnit("?- " + args.query_text + ".",
                       parsed.program.universe());
    if (!q.ok() || !q->query.has_value()) {
      std::fprintf(stderr, "magicdb: bad --query: %s\n",
                   q.ok() ? "not a query" : q.status().ToString().c_str());
      return ExitCodeFor(WireCode::kInvalidArgument);
    }
    query = q->query;
  }
  if (!query.has_value()) {
    std::fprintf(stderr,
                 "magicdb: no query (add a ?- clause or pass --query)\n");
    return ExitCodeFor(WireCode::kInvalidArgument);
  }

  Universe& u = *parsed.program.universe();
  if (args.safety) {
    // Use a fresh parse so the report's adornment does not perturb the
    // predicate names of the main run.
    auto fresh = ParseUnit(source_text);
    std::optional<Query> fresh_query = fresh.ok() ? fresh->query : std::nullopt;
    if (fresh.ok() && !args.query_text.empty()) {
      auto q = ParseUnit("?- " + args.query_text + ".",
                         fresh->program.universe());
      if (q.ok()) fresh_query = q->query;
    }
    std::unique_ptr<SipStrategy> sip = MakeSipStrategy(args.options.sip);
    if (fresh.ok() && fresh_query.has_value() && sip != nullptr) {
      auto adorned = Adorn(fresh->program, *fresh_query, *sip);
      if (adorned.ok()) {
        SafetyReport magic_report = CheckMagicSafety(*adorned);
        SafetyReport counting_report = CheckCountingSafety(*adorned);
        std::printf("safety (magic):    %s\n",
                    SafetyVerdictName(magic_report.verdict).c_str());
        std::printf("safety (counting): %s\n",
                    SafetyVerdictName(counting_report.verdict).c_str());
      }
    }
  }

  QueryEngine engine(args.options);
  QueryAnswer answer = engine.Run(parsed.program, *query, db, args.limits);
  if (args.explain && !answer.rewritten_text.empty()) {
    std::printf("%% rewritten program (%s, sip=%s)\n%s%%\n",
                StrategyName(args.options.strategy).c_str(),
                args.options.sip.c_str(), answer.rewritten_text.c_str());
  }
  if (!answer.status.ok()) {
    std::fprintf(stderr, "magicdb: %s\n", answer.status.ToString().c_str());
    return ExitForAnswer(answer);
  }
  std::vector<int> free_positions = QueryFreePositions(u, *query);
  if (free_positions.empty()) {
    std::printf("%s\n", answer.tuples.empty() ? "false" : "true");
  } else {
    for (const auto& tuple : answer.tuples) PrintTuple(u, tuple);
  }
  if (answer.truncated()) {
    std::fprintf(stderr, "magicdb: truncated after %zu row(s) (--limit)\n",
                 answer.tuples.size());
  }
  if (args.profile) {
    // EXPLAIN-style fixpoint profile: one row per rule of the program that
    // actually ran (rewritten/adorned/original by strategy), in rule order.
    std::printf("%% fixpoint profile (%s, %zu rule(s))\n",
                answer.strategy_name.c_str(), answer.profile.size());
    std::printf("%% %4s %8s %8s %9s %9s %11s %10s  rule\n", "#", "evals",
                "firings", "new", "dup", "probes", "delta");
    for (size_t i = 0; i < answer.profile.size(); ++i) {
      const RuleProfile& c = answer.profile[i].counts;
      std::printf("%% %4zu %8llu %8llu %9llu %9llu %11llu %10llu  %s\n", i,
                  static_cast<unsigned long long>(c.evals),
                  static_cast<unsigned long long>(c.firings),
                  static_cast<unsigned long long>(c.new_facts),
                  static_cast<unsigned long long>(c.duplicate_facts),
                  static_cast<unsigned long long>(c.join_probes),
                  static_cast<unsigned long long>(c.delta_rows),
                  answer.profile[i].rule.c_str());
    }
  }
  if (args.stats) {
    std::fprintf(stderr,
                 "%% %zu answer(s), %zu fact(s) derived, %llu firing(s), "
                 "%llu probe(s), %.3f ms\n",
                 answer.tuples.size(), answer.total_facts,
                 static_cast<unsigned long long>(
                     answer.eval_stats.rule_firings),
                 static_cast<unsigned long long>(
                     answer.eval_stats.join_probes),
                 answer.eval_stats.seconds * 1e3);
  }
  return ExitForAnswer(answer);
}

int Run(const Args& args) {
  if (args.cmd == "serve") {
    // serve delegates the whole lifecycle (load, listen, signal-driven
    // shutdown) to the net bootstrap.
    net::ServeBootstrap bootstrap;
    bootstrap.program_path = args.program_path;
    bootstrap.facts_dir = args.facts_dir;
    bootstrap.service.num_threads = args.threads;
    bootstrap.service.cache_bytes = args.cache_bytes;
    bootstrap.service.engine = args.options;
    bootstrap.server = args.server;
    bootstrap.stats = args.stats;
    return net::RunServeMain(bootstrap);
  }

  std::ifstream in(args.program_path);
  if (!in) {
    std::fprintf(stderr, "magicdb: cannot open %s\n",
                 args.program_path.c_str());
    return ExitCodeFor(WireCode::kInvalidArgument);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  auto parsed = ParseUnit(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "magicdb: %s\n",
                 parsed.status().ToString().c_str());
    return ExitFor(parsed.status());
  }
  for (const std::string& warning : ValidateProgram(parsed->program)) {
    std::fprintf(stderr, "magicdb: warning: %s\n", warning.c_str());
  }

  Database db(parsed->program.universe());
  for (const Fact& fact : parsed->facts) {
    if (Status st = db.AddFact(fact); !st.ok()) {
      std::fprintf(stderr, "magicdb: %s\n", st.ToString().c_str());
      return ExitFor(st);
    }
  }
  if (!args.facts_dir.empty()) {
    if (Status st = LoadFactsDirectory(parsed->program, args.facts_dir, &db);
        !st.ok()) {
      std::fprintf(stderr, "magicdb: %s\n", st.ToString().c_str());
      return ExitFor(st);
    }
  }

  if (args.cmd == "bench") return RunBench(args, *parsed, db);
  if (args.cmd == "apply") return RunApply(args, *parsed, db);
  if (args.cmd == "repl") return RunRepl(args, *parsed, db);
  return RunEval(args, *parsed, db, buffer.str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  if (!args.ok) {
    std::fprintf(stderr, "magicdb: %s\n", args.error.c_str());
    std::fprintf(
        stderr,
        "usage: magicdb <subcommand> [options] program.dl\n"
        "  eval  [--query Q] [--strategy S] [--sip NAME] [--guards MODE]\n"
        "        [--explain] [--profile] [--safety] [--check-safety] "
        "[--limit N]\n"
        "        [--deadline-ms N] [--max-facts N] [--facts DIR] [--stats]\n"
        "  bench --batch FILE [--apply FILE] [--threads N] [--limit N]\n"
        "        [--deadline-ms N] [--cache-bytes N|--no-cache] ...\n"
        "  apply [--file FILE] [--threads N] [--facts DIR] [--stats]\n"
        "  repl  [--threads N] [--limit N] [--deadline-ms N]\n"
        "        [--cache-bytes N|--no-cache] ...\n"
        "  serve [--host H] [--port P] [--max-connections N] [--threads N]\n"
        "        [--cache-bytes N|--no-cache] [--facts DIR] [--stats] ...\n");
    return 2;
  }
  return Run(args);
}
