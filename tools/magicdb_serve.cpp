// magicdb-serve — TCP server speaking the magicdb line protocol.
//
//   magicdb-serve [options] <program.dl>
//
// Options:
//   --host H             bind address (default 127.0.0.1)
//   --port P             port; 0 binds ephemeral (default 4617). The
//                        chosen endpoint prints as one line on stdout:
//                        `magicdb-serve listening on HOST:PORT`
//   --threads N          worker threads (default: hardware)
//   --max-connections N  socket-level admission bound (default 64)
//   --cache-bytes N      AnswerCache byte budget (default 8 MiB)
//   --no-cache           disable cross-query answer memoization
//   --strategy NAME      default evaluation strategy (default gsms)
//   --sip NAME           default sip strategy
//   --facts DIR          load <pred>.facts TSV files from DIR
//   --stats              print serving statistics on shutdown
//
// The protocol (PREPARE/QUERY/STREAM/APPLY/STATS/METRICS/CLOSE) is
// documented in src/net/session.h; magicdb-cli is the matching client. SIGINT/SIGTERM
// shut down cleanly: stop accepting, disconnect sessions, join threads,
// then print `magicdb-serve: clean shutdown`.
//
// This binary is `magicdb serve` minus the subcommand wrapper — both call
// net::RunServeMain, so flags and behavior cannot drift.

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "engine/query_engine.h"
#include "net/bootstrap.h"

int main(int argc, char** argv) {
  using namespace magic;
  net::ServeBootstrap bootstrap;
  bootstrap.server.port = 4617;
  auto usage = [] {
    std::fprintf(
        stderr,
        "usage: magicdb-serve [--host H] [--port P] [--threads N] "
        "[--max-connections N] [--cache-bytes N|--no-cache] "
        "[--strategy S] [--sip NAME] [--facts DIR] [--stats] program.dl\n");
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--host") {
      const char* v = value();
      if (v == nullptr) return usage();
      bootstrap.server.host = v;
    } else if (arg == "--port") {
      const char* v = value();
      if (v == nullptr) return usage();
      bootstrap.server.port =
          static_cast<uint16_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--threads") {
      const char* v = value();
      if (v == nullptr) return usage();
      bootstrap.service.num_threads = std::strtoull(v, nullptr, 10);
    } else if (arg == "--max-connections") {
      const char* v = value();
      if (v == nullptr) return usage();
      bootstrap.server.max_connections = std::strtoull(v, nullptr, 10);
    } else if (arg == "--cache-bytes") {
      const char* v = value();
      if (v == nullptr) return usage();
      bootstrap.service.cache_bytes = std::strtoull(v, nullptr, 10);
    } else if (arg == "--no-cache") {
      bootstrap.service.cache_bytes = 0;
    } else if (arg == "--strategy") {
      const char* v = value();
      if (v == nullptr) return usage();
      std::optional<Strategy> strategy = StrategyFromName(v);
      if (!strategy.has_value()) {
        std::fprintf(stderr, "magicdb-serve: unknown strategy: %s\n", v);
        return 2;
      }
      bootstrap.service.engine.strategy = *strategy;
    } else if (arg == "--sip") {
      const char* v = value();
      if (v == nullptr) return usage();
      bootstrap.service.engine.sip = v;
    } else if (arg == "--facts") {
      const char* v = value();
      if (v == nullptr) return usage();
      bootstrap.facts_dir = v;
    } else if (arg == "--stats") {
      bootstrap.stats = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "magicdb-serve: unknown option: %s\n",
                   arg.c_str());
      return usage();
    } else {
      bootstrap.program_path = arg;
    }
  }
  if (bootstrap.program_path.empty()) {
    std::fprintf(stderr, "magicdb-serve: no program file given\n");
    return usage();
  }
  return net::RunServeMain(bootstrap);
}
