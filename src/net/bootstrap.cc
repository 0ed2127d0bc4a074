#include "net/bootstrap.h"

#include <csignal>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include "ast/parser.h"
#include "storage/fact_io.h"

namespace magic {
namespace net {

namespace {

std::sig_atomic_t volatile g_shutdown_requested = 0;

void HandleShutdownSignal(int) { g_shutdown_requested = 1; }

int ExitFor(const Status& status) {
  return ExitCodeFor(ToWireCode(status.code()));
}

}  // namespace

int RunServeMain(const ServeBootstrap& config) {
  std::ifstream in(config.program_path);
  if (!in) {
    std::fprintf(stderr, "magicdb serve: cannot open %s\n",
                 config.program_path.c_str());
    return ExitCodeFor(WireCode::kInvalidArgument);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = ParseUnit(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "magicdb serve: %s\n",
                 parsed.status().ToString().c_str());
    return ExitFor(parsed.status());
  }
  for (const std::string& warning : ValidateProgram(parsed->program)) {
    std::fprintf(stderr, "magicdb serve: warning: %s\n", warning.c_str());
  }

  Database db(parsed->program.universe());
  for (const Fact& fact : parsed->facts) {
    if (Status st = db.AddFact(fact); !st.ok()) {
      std::fprintf(stderr, "magicdb serve: %s\n", st.ToString().c_str());
      return ExitFor(st);
    }
  }
  if (!config.facts_dir.empty()) {
    if (Status st =
            LoadFactsDirectory(parsed->program, config.facts_dir, &db);
        !st.ok()) {
      std::fprintf(stderr, "magicdb serve: %s\n", st.ToString().c_str());
      return ExitFor(st);
    }
  }

  QueryService service(parsed->program, db, config.service);
  MagicServer server(parsed->program.universe(), parsed->program, &service,
                     config.server);
  if (Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "magicdb serve: %s\n", st.ToString().c_str());
    return ExitFor(st);
  }
  // One machine-parseable line; smoke tests and wrappers read the port
  // from it (ephemeral binding is the default).
  std::printf("magicdb serve listening on %s:%u\n", server.host().c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  struct sigaction action {};
  action.sa_handler = HandleShutdownSignal;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  while (!g_shutdown_requested) {
    // Sleep until any signal arrives; EINTR is the wake-up.
    struct timespec ts = {0, 200 * 1000 * 1000};
    ::nanosleep(&ts, nullptr);
  }

  server.Stop();
  if (config.stats) {
    std::fprintf(stderr, "%% %s\n", service.stats().Summary().c_str());
  }
  std::printf("magicdb serve: clean shutdown\n");
  std::fflush(stdout);
  return ExitCodeFor(WireCode::kOk);
}

}  // namespace net
}  // namespace magic
