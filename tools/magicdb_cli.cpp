// magicdb-cli — wire client for `magicdb serve`.
//
//   magicdb-cli [--host H] --port P <command> [words...]
//
// Commands (lower-case verbs of the line protocol, src/net/session.h):
//   prepare NAME QUERY...             compile a query form on the server
//   query NAME [SEED...] [limit=N] [deadline_ms=N]
//                                     run a prepared form; rows to stdout
//   query "QUERY(...)" [limit=N ...]  one-shot: prepared forms are
//                                     per-session, so an operand that IS
//                                     a query text (contains '(') sends
//                                     PREPARE + QUERY over one connection
//   stream NAME [SEED...] [...]       like query, but rows print as the
//                                     fixpoint derives them (chunked);
//                                     accepts the one-shot query form too
//   apply [FILE]                      send mutation lines ("+fact." /
//                                     "-fact.", one per line) from FILE or
//                                     stdin as ONE atomic APPLY
//   stats                             server-side serving statistics
//   metrics [json]                    scrape the metrics registry:
//                                     Prometheus text exposition, or
//                                     the STATS JSON document with `json`
//   raw WORD...                       send the words verbatim (testing)
//
// Every response's head line prints to stderr (it carries the wire code
// and `key=value` fields); payload rows print to stdout. The exit code is
// the reply's wire code through the shared table (util/status.h): 0 ok or
// truncated, 3 bad request, 4 deadline, 5 cancelled, 6 overloaded,
// 7 protocol error, 1 internal.
//
// Examples:
//   magicdb-cli --port 4617 query "anc(c0, Y)" limit=10
//   magicdb-cli --port 4617 stream "anc(c0, Y)"
//   printf '+par(c9,c10).\n' | magicdb-cli --port 4617 apply
//   magicdb-cli --port 4617 stats

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "net/client.h"

namespace {

using namespace magic;

int Usage() {
  std::fprintf(
      stderr,
      "usage: magicdb-cli [--host H] --port P "
      "prepare|query|stream|apply|stats|metrics|raw [words...]\n");
  return 2;
}

/// Prints a reply: head line (wire code + fields) to stderr, payload rows
/// to stdout. Returns the table-driven exit code.
int Finish(const net::MagicClient::Reply& reply) {
  std::fprintf(stderr, "%s%s%s\n", WireCodeName(reply.code),
               reply.head.empty() ? "" : " ", reply.head.c_str());
  for (const std::string& line : reply.lines) {
    std::printf("%s\n", line.c_str());
  }
  return reply.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int i = 1;
  for (; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      port = static_cast<uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      break;
    }
  }
  if (port == 0 || i >= argc) return Usage();
  std::string verb = argv[i++];

  // The request line: the verb upper-cased (the protocol's spelling)
  // followed by the remaining words verbatim.
  std::string request;
  std::string prepare_first;
  if (verb == "raw") {
    for (; i < argc; ++i) {
      if (!request.empty()) request += ' ';
      request += argv[i];
    }
  } else if (verb == "prepare" || verb == "query" || verb == "stream" ||
             verb == "stats" || verb == "metrics" || verb == "apply") {
    request = verb;
    for (char& c : request) c = static_cast<char>(std::toupper(c));
    // One-shot form: prepared forms live per session, so `query
    // "anc(c0, Y)"` must PREPARE and QUERY on the same connection. An
    // operand that is a query text (contains '(') triggers that.
    if ((verb == "query" || verb == "stream") && i < argc &&
        std::strchr(argv[i], '(') != nullptr) {
      prepare_first = std::string("PREPARE __cli ") + argv[i++];
      request += " __cli";
    }
    for (int j = i; j < argc; ++j) {
      if (verb == "apply") break;  // apply's operand is the payload file
      request += ' ';
      request += argv[j];
    }
  } else {
    std::fprintf(stderr, "magicdb-cli: unknown command: %s\n", verb.c_str());
    return Usage();
  }

  if (verb == "apply") {
    // Mutation lines ride in the request frame after the verb line.
    std::stringstream payload;
    if (i < argc) {
      std::ifstream in(argv[i]);
      if (!in) {
        std::fprintf(stderr, "magicdb-cli: cannot open %s\n", argv[i]);
        return ExitCodeFor(WireCode::kInvalidArgument);
      }
      payload << in.rdbuf();
    } else {
      payload << std::cin.rdbuf();
    }
    request += '\n';
    request += payload.str();
  }

  auto client = net::MagicClient::Connect(host, port);
  if (!client.ok()) {
    std::fprintf(stderr, "magicdb-cli: %s\n",
                 client.status().ToString().c_str());
    return ExitCodeFor(ToWireCode(client.status().code()));
  }

  if (!prepare_first.empty()) {
    auto prepared = client->Call(prepare_first);
    if (!prepared.ok()) {
      std::fprintf(stderr, "magicdb-cli: %s\n",
                   prepared.status().ToString().c_str());
      return ExitCodeFor(ToWireCode(prepared.status().code()));
    }
    if (prepared->code != WireCode::kOk) return Finish(*prepared);
  }

  if (verb == "stream") {
    auto reply = client->Stream(request, [](const std::string& row) {
      std::printf("%s\n", row.c_str());
      return true;
    });
    if (!reply.ok()) {
      std::fprintf(stderr, "magicdb-cli: %s\n",
                   reply.status().ToString().c_str());
      return ExitCodeFor(ToWireCode(reply.status().code()));
    }
    return Finish(*reply);
  }

  auto reply = client->Call(request);
  if (!reply.ok()) {
    std::fprintf(stderr, "magicdb-cli: %s\n",
                 reply.status().ToString().c_str());
    return ExitCodeFor(ToWireCode(reply.status().code()));
  }
  return Finish(*reply);
}
