#ifndef MAGIC_NET_SESSION_H_
#define MAGIC_NET_SESSION_H_

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/query_service.h"
#include "net/wire.h"

namespace magic {
namespace net {

/// Everything one connection needs from the process hosting the server.
/// Shared by every session; all of it is either immutable for the server's
/// lifetime or internally synchronized (the Universe's interning tables,
/// the QueryService).
struct ServeContext {
  /// The root universe queries parse against. Sessions intern new
  /// constants into it concurrently — safe, the tables are internally
  /// synchronized — and the predicate freeze below polices declarations.
  std::shared_ptr<Universe> universe;
  const Program* program = nullptr;
  QueryService* service = nullptr;
  /// Predicate-table size when serving started; requests using predicates
  /// at or above this line are rejected (CheckFrozenPredicate).
  size_t frozen_preds = 0;
  size_t max_request_frame = kMaxRequestFrame;
};

/// One connection's protocol state: the prepared forms it has named, fed
/// by a frame loop over the verbs below. Runs on the connection's own
/// thread; everything it shares with other sessions goes through the
/// internally synchronized ServeContext members.
///
/// Request grammar (one frame per request; `[...]` optional, `key=value`
/// options trail the positional part):
///
///   PREPARE <name> <query-text> [strategy=S] [sip=S]
///       Parses `?- p(...)` (the "?-" and final "." may be omitted),
///       compiles its form, and binds it to the client-chosen <name>
///       (re-PREPARE rebinds). The query's constants become the default
///       seed for QUERY/STREAM.
///   QUERY <name> [seed...] [limit=N] [deadline_ms=N] [profile=1]
///       Evaluates one instance of a prepared form. Seeds are ground
///       terms without spaces (`c3`, `17`, `f(a,b)`), one per bound
///       position in position order; omitted seeds reuse the PREPARE
///       text's constants. Single response frame: first line
///       `<Code> rows=<n> outcome=<o> cached=<0|1>`, then one line per
///       tuple (tab-separated), or `true`/`false` for boolean queries.
///       With profile=1, the frame ends with one `%`-prefixed line per
///       rule of the evaluated (rewritten/adorned) program carrying that
///       run's fixpoint profile (`% <i> evals=<n> firings=<n> ...
///       rule=<text>`); cache-served answers ran no fixpoint and carry
///       none.
///   STREAM <name> [seed...] [limit=N] [deadline_ms=N] [profile=1]
///       Like QUERY but rows arrive as separate `*`-prefixed frames while
///       the fixpoint runs (derivation order, deduplicated, unsorted),
///       terminated by one `<Code> rows=<n> outcome=<o>` frame (which
///       carries the `%` profile lines when profile=1 was given).
///   APPLY
///   <mutation-line>...
///       Applies the mutation lines (one per payload line after the verb
///       line; `+fact.` inserts, `-fact.` retracts, bare inserts) as one
///       WriteBatch through the live service's write seam. Response:
///       `Ok inserted=<n> retracted=<n> cleared=<n> mutated=<n>`.
///   STATS
///       `Ok <summary>` plus one JSON line: the STATS document
///       (QueryService::MetricsJson — the registry walk, each form's
///       labels and rule texts, the slow-query ring).
///   METRICS [json]
///       `Ok format=prometheus` followed by the Prometheus text
///       exposition of every registered instrument (scrape surface), or
///       with `json` the same STATS document STATS carries.
///   CLOSE
///       `Ok bye`, then the server closes the connection.
///
/// Every response frame's first token is a WireCode name (the one table in
/// util/status.h). Unknown verbs and malformed requests answer
/// InvalidArgument and the connection survives; framing violations
/// (oversized/torn frames) answer Protocol (when the peer is still there
/// to read it) and close — once framing is untrusted the byte stream
/// cannot be resynchronized.
class Session {
 public:
  Session(int fd, const ServeContext* ctx) : fd_(fd), ctx_(ctx) {}

  /// Serves frames until CLOSE, EOF, or a framing violation. Does not
  /// close `fd` (the owner does; it may be a test's socketpair end).
  void Run();

 private:
  /// A named form: every PREPARE (base predicate or derived, under the
  /// PREPARE-time strategy and sip) yields a valid handle, and QUERY/STREAM
  /// serve through it.
  struct PreparedEntry {
    QueryService::FormHandle handle;
    /// The PREPARE text's parse; its constants are the default seed.
    Query query;
  };

  /// Dispatches one request frame. Returns false when the session should
  /// end (CLOSE, or a write failed because the peer vanished).
  bool HandleFrame(const std::string& request);

  bool HandlePrepare(const std::vector<std::string>& args);
  bool HandleQuery(const std::vector<std::string>& args, bool streaming);
  bool HandleApply(const std::string& payload);
  bool HandleStats();
  bool HandleMetrics(const std::vector<std::string>& args);

  /// Single-frame response: `<code-name> <text>`. Returns false when the
  /// write failed (peer gone).
  bool Reply(WireCode code, const std::string& text);

  int fd_;
  const ServeContext* ctx_;
  std::unordered_map<std::string, PreparedEntry> forms_;
};

}  // namespace net
}  // namespace magic

#endif  // MAGIC_NET_SESSION_H_
