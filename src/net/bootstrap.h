#ifndef MAGIC_NET_BOOTSTRAP_H_
#define MAGIC_NET_BOOTSTRAP_H_

#include <string>

#include "engine/query_service.h"
#include "net/server.h"

namespace magic {
namespace net {

/// Everything a serving process needs to come up: the program to load,
/// the service configuration, and the listening endpoint. `magicdb serve`
/// fills it from its own flag parser.
struct ServeBootstrap {
  std::string program_path;
  std::string facts_dir;  // optional <pred>.facts directory
  QueryServiceOptions service;
  ServerOptions server;
  /// Print the service counter summary to stderr on shutdown.
  bool stats = false;
};

/// Loads the program (+ facts), builds the Database and QueryService,
/// starts a MagicServer, prints exactly one
/// `magicdb serve listening on <host>:<port>` line to stdout (the port is
/// real even when 0 was requested — smoke tests parse this line), then
/// blocks until SIGINT/SIGTERM. Shuts down cleanly: stop accepting, drain
/// sessions, join threads, print `magicdb serve: clean shutdown`.
/// Returns a process exit code from the shared wire table.
int RunServeMain(const ServeBootstrap& config);

}  // namespace net
}  // namespace magic

#endif  // MAGIC_NET_BOOTSTRAP_H_
