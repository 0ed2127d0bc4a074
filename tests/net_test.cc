// The wire: the shared WireCode table, the frame layer, and a live
// MagicServer end to end — prepare/query/stream/apply/stats/close, the
// hostile-input paths (torn, oversized, garbage frames), mid-stream client
// disconnect, deadlines, and concurrent clients reading under a live APPLY
// writer. The suites are named Net* so the CI ThreadSanitizer leg picks
// them up by regex.

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "engine/query_service.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "util/status.h"
#include "workload/generators.h"

namespace magic {
namespace {

using net::FrameResult;
using net::MagicClient;
using net::MagicServer;

// --- the one outcome <-> wire-code <-> exit-code table ----------------------

TEST(NetWireCodeTest, NamesRoundTripThroughTheTable) {
  for (WireCode code :
       {WireCode::kOk, WireCode::kTruncated, WireCode::kDeadlineExceeded,
        WireCode::kCancelled, WireCode::kOverloaded,
        WireCode::kInvalidArgument, WireCode::kNotFound,
        WireCode::kFailedPrecondition, WireCode::kResourceExhausted,
        WireCode::kUnsafe, WireCode::kUnimplemented, WireCode::kInternal,
        WireCode::kProtocol}) {
    auto back = WireCodeFromName(WireCodeName(code));
    ASSERT_TRUE(back.has_value()) << WireCodeName(code);
    EXPECT_EQ(*back, code);
  }
  EXPECT_FALSE(WireCodeFromName("NotACode").has_value());
}

TEST(NetWireCodeTest, ExitCodesMatchTheDocumentedContract) {
  EXPECT_EQ(ExitCodeFor(WireCode::kOk), 0);
  EXPECT_EQ(ExitCodeFor(WireCode::kTruncated), 0);  // hitting --limit is ok
  EXPECT_EQ(ExitCodeFor(WireCode::kInternal), 1);
  EXPECT_EQ(ExitCodeFor(WireCode::kInvalidArgument), 3);
  EXPECT_EQ(ExitCodeFor(WireCode::kNotFound), 3);
  EXPECT_EQ(ExitCodeFor(WireCode::kFailedPrecondition), 3);
  EXPECT_EQ(ExitCodeFor(WireCode::kDeadlineExceeded), 4);
  EXPECT_EQ(ExitCodeFor(WireCode::kCancelled), 5);
  EXPECT_EQ(ExitCodeFor(WireCode::kOverloaded), 6);
  EXPECT_EQ(ExitCodeFor(WireCode::kResourceExhausted), 6);
  EXPECT_EQ(ExitCodeFor(WireCode::kProtocol), 7);
}

TEST(NetWireCodeTest, OutcomeWinsOverStatusCode) {
  EXPECT_EQ(ToWireCode(AnswerStatus::kTruncated, StatusCode::kOk),
            WireCode::kTruncated);
  EXPECT_EQ(ToWireCode(AnswerStatus::kOverloaded,
                       StatusCode::kResourceExhausted),
            WireCode::kOverloaded);
  EXPECT_EQ(ToWireCode(AnswerStatus::kDeadlineExceeded,
                       StatusCode::kDeadlineExceeded),
            WireCode::kDeadlineExceeded);
  // kError defers to the status code; an OK status with kError is internal.
  EXPECT_EQ(ToWireCode(AnswerStatus::kError, StatusCode::kInvalidArgument),
            WireCode::kInvalidArgument);
  EXPECT_EQ(ToWireCode(AnswerStatus::kError, StatusCode::kOk),
            WireCode::kInternal);
}

TEST(NetWireCodeTest, StatusReconstructsThroughTheTable) {
  EXPECT_TRUE(StatusFromWire(WireCode::kOk, "").ok());
  EXPECT_TRUE(StatusFromWire(WireCode::kTruncated, "").ok());
  Status deadline = StatusFromWire(WireCode::kDeadlineExceeded, "late");
  EXPECT_EQ(deadline.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(deadline.message(), "late");
  EXPECT_EQ(StatusFromWire(WireCode::kProtocol, "x").code(),
            StatusCode::kInvalidArgument);
}

// --- frame layer over a socketpair ------------------------------------------

class NetFramingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  void CloseWriter() {
    ::close(fds_[1]);
    fds_[1] = -1;
  }
  int fds_[2] = {-1, -1};
};

TEST_F(NetFramingTest, RoundTripsPayloads) {
  for (const std::string& payload :
       {std::string("QUERY anc c3"), std::string(""),
        std::string(4096, 'x')}) {
    ASSERT_TRUE(net::WriteFrame(fds_[1], payload));
    std::string out;
    ASSERT_EQ(net::ReadFrame(fds_[0], net::kMaxRequestFrame, &out),
              FrameResult::kOk);
    EXPECT_EQ(out, payload);
  }
}

TEST_F(NetFramingTest, CleanCloseIsEofNotAnError) {
  CloseWriter();
  std::string out;
  EXPECT_EQ(net::ReadFrame(fds_[0], net::kMaxRequestFrame, &out),
            FrameResult::kEof);
}

TEST_F(NetFramingTest, TornHeaderReports) {
  const unsigned char partial[2] = {0, 0};  // 2 of the 4 header bytes
  ASSERT_EQ(::send(fds_[1], partial, sizeof(partial), 0),
            static_cast<ssize_t>(sizeof(partial)));
  CloseWriter();
  std::string out;
  EXPECT_EQ(net::ReadFrame(fds_[0], net::kMaxRequestFrame, &out),
            FrameResult::kTorn);
}

TEST_F(NetFramingTest, TornPayloadReports) {
  const unsigned char header[4] = {0, 0, 0, 10};  // promises 10 bytes
  ASSERT_EQ(::send(fds_[1], header, sizeof(header), 0), 4);
  ASSERT_EQ(::send(fds_[1], "abc", 3, 0), 3);  // delivers 3
  CloseWriter();
  std::string out;
  EXPECT_EQ(net::ReadFrame(fds_[0], net::kMaxRequestFrame, &out),
            FrameResult::kTorn);
}

TEST_F(NetFramingTest, OversizedLengthPrefixReports) {
  const unsigned char header[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(fds_[1], header, sizeof(header), 0), 4);
  std::string out;
  EXPECT_EQ(net::ReadFrame(fds_[0], net::kMaxRequestFrame, &out),
            FrameResult::kOversized);
}

// --- live server end to end -------------------------------------------------

/// One in-process server over an ancestor chain; every test gets a fresh
/// service + server on an ephemeral port.
class NetServerTest : public ::testing::Test {
 protected:
  explicit NetServerTest(int chain = 12) : w_(MakeAncestorChain(chain)) {}

  void StartServer(QueryServiceOptions options = {}) {
    service_ = std::make_unique<QueryService>(w_.program, w_.db, options);
    server_ = std::make_unique<MagicServer>(w_.universe, w_.program,
                                            service_.get());
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  MagicClient Connect() {
    auto client = MagicClient::Connect(server_->host(), server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  Workload w_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<MagicServer> server_;
};

TEST_F(NetServerTest, PrepareQueryStreamApplyStatsCloseRoundTrip) {
  StartServer();
  MagicClient client = Connect();

  // PREPARE compiles the form once; the reply reports its shape.
  auto prep = client.Call("PREPARE anc anc(c3, Y)");
  ASSERT_TRUE(prep.ok()) << prep.status().ToString();
  ASSERT_EQ(prep->code, WireCode::kOk) << prep->head;
  EXPECT_NE(prep->head.find("form=anc"), std::string::npos);
  EXPECT_NE(prep->head.find("adornment=bf"), std::string::npos);
  EXPECT_NE(prep->head.find("bound=1"), std::string::npos);

  // QUERY with an explicit seed: chain 12 puts c4..c11 above c3.
  auto query = client.Call("QUERY anc c3");
  ASSERT_TRUE(query.ok());
  ASSERT_EQ(query->code, WireCode::kOk) << query->head;
  EXPECT_EQ(query->lines.size(), 8u);
  EXPECT_NE(query->head.find("rows=8"), std::string::npos);

  // No seed reuses the PREPARE text's constants.
  auto same = client.Call("QUERY anc");
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same->lines.size(), 8u);

  // Row limits ride as trailing options; truncation is a success code.
  auto limited = client.Call("QUERY anc c0 limit=2");
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->code, WireCode::kTruncated);
  EXPECT_EQ(limited->lines.size(), 2u);
  EXPECT_EQ(limited->exit_code(), 0);

  // STREAM delivers the same rows one frame each, then a status frame.
  std::vector<std::string> rows;
  auto streamed = client.Stream("STREAM anc c3", [&](const std::string& row) {
    rows.push_back(row);
    return true;
  });
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(streamed->code, WireCode::kOk) << streamed->head;
  EXPECT_EQ(rows.size(), 8u);
  EXPECT_NE(streamed->head.find("rows=8"), std::string::npos);

  // APPLY extends the chain; the very next read sees the new row — the
  // write seam's publish-before-return holds over the wire too.
  auto applied = client.Call("APPLY\n+par(c11, c12).");
  ASSERT_TRUE(applied.ok());
  ASSERT_EQ(applied->code, WireCode::kOk) << applied->head;
  EXPECT_NE(applied->head.find("inserted=1"), std::string::npos);
  auto after = client.Call("QUERY anc c3");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->lines.size(), 9u);

  // STATS carries the shared Summary line plus the STATS document, which
  // METRICS json returns unchanged.
  auto stats = client.Call("STATS");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->code, WireCode::kOk);
  ASSERT_EQ(stats->lines.size(), 1u);
  EXPECT_EQ(stats->lines[0].front(), '{');
  auto metrics_json = client.Call("METRICS json");
  ASSERT_TRUE(metrics_json.ok());
  ASSERT_EQ(metrics_json->lines.size(), 1u);
  EXPECT_EQ(metrics_json->lines[0], stats->lines[0]);

  // CLOSE answers then hangs up.
  auto bye = client.Call("CLOSE");
  ASSERT_TRUE(bye.ok());
  EXPECT_EQ(bye->code, WireCode::kOk);
  EXPECT_FALSE(client.Call("STATS").ok());
}

TEST_F(NetServerTest, BasePredicateFormServesThroughTheAnswerCache) {
  StartServer();
  MagicClient client = Connect();

  // A base-predicate query prepares a selection form like any other.
  auto prep = client.Call("PREPARE p par(c0, Y)");
  ASSERT_TRUE(prep.ok()) << prep.status().ToString();
  ASSERT_EQ(prep->code, WireCode::kOk) << prep->head;
  EXPECT_NE(prep->head.find("adornment=bf"), std::string::npos);
  EXPECT_NE(prep->head.find("bound=1"), std::string::npos);

  // The chain's one edge out of c0; the repeat is an AnswerCache hit.
  auto first = client.Call("QUERY p");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->code, WireCode::kOk) << first->head;
  EXPECT_EQ(first->lines, std::vector<std::string>{"c1"});
  EXPECT_NE(first->head.find("cached=0"), std::string::npos) << first->head;
  auto second = client.Call("QUERY p");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(second->code, WireCode::kOk) << second->head;
  EXPECT_EQ(second->lines, first->lines);
  EXPECT_NE(second->head.find("cached=1"), std::string::npos) << second->head;

  // STREAM returns the same rows.
  std::vector<std::string> rows;
  auto streamed = client.Stream("STREAM p", [&](const std::string& row) {
    rows.push_back(row);
    return true;
  });
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(streamed->code, WireCode::kOk) << streamed->head;
  EXPECT_EQ(rows, first->lines);
}

TEST_F(NetServerTest, GarbageVerbKeepsTheConnectionAlive) {
  StartServer();
  MagicClient client = Connect();
  auto bogus = client.Call("FROBNICATE now");
  ASSERT_TRUE(bogus.ok());
  EXPECT_EQ(bogus->code, WireCode::kInvalidArgument);
  EXPECT_EQ(bogus->exit_code(), 3);
  // The session survives garbage (only untrusted *framing* closes it).
  auto stats = client.Call("STATS");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->code, WireCode::kOk);
}

TEST_F(NetServerTest, QueryErrorsUseTheTable) {
  StartServer();
  MagicClient client = Connect();
  auto unknown = client.Call("QUERY nope c0");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->code, WireCode::kNotFound);

  ASSERT_EQ(client.Call("PREPARE anc anc(c0, Y)")->code, WireCode::kOk);
  auto bad_seed = client.Call("QUERY anc Y");
  ASSERT_TRUE(bad_seed.ok());
  EXPECT_EQ(bad_seed->code, WireCode::kInvalidArgument);
  auto arity = client.Call("QUERY anc c0 c1");
  ASSERT_TRUE(arity.ok());
  EXPECT_EQ(arity->code, WireCode::kInvalidArgument);
}

TEST_F(NetServerTest, NewPredicatesAreFrozenOutByName) {
  StartServer();
  MagicClient client = Connect();

  // APPLY naming a predicate declared after serving started is rejected,
  // and the diagnostic names the offending predicate.
  auto applied = client.Call("APPLY\n+brand_new_rel(a, b).");
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied->code, WireCode::kFailedPrecondition) << applied->head;
  EXPECT_NE(applied->head.find("brand_new_rel/2"), std::string::npos)
      << applied->head;

  // Same check, same diagnostic, on the PREPARE side.
  auto prep = client.Call("PREPARE x another_new_rel(c0, Y)");
  ASSERT_TRUE(prep.ok());
  EXPECT_EQ(prep->code, WireCode::kFailedPrecondition);
  EXPECT_NE(prep->head.find("another_new_rel/2"), std::string::npos);

  // New *constants* are the supported half of the contract.
  auto fine = client.Call("APPLY\n+par(c11, c12).");
  ASSERT_TRUE(fine.ok());
  EXPECT_EQ(fine->code, WireCode::kOk) << fine->head;
}

TEST_F(NetServerTest, TornFrameEndsOnlyThatSession) {
  StartServer();
  MagicClient torn = Connect();
  const unsigned char header[4] = {0, 0, 0, 32};  // promises 32 bytes
  ASSERT_EQ(::send(torn.fd(), header, sizeof(header), MSG_NOSIGNAL), 4);
  ASSERT_EQ(::send(torn.fd(), "QUERY", 5, MSG_NOSIGNAL), 5);
  torn.Close();

  // The server dropped that session silently and keeps accepting.
  MagicClient fresh = Connect();
  auto stats = fresh.Call("STATS");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->code, WireCode::kOk);
}

TEST_F(NetServerTest, OversizedFrameAnswersProtocolAndCloses) {
  StartServer();
  MagicClient client = Connect();
  // A length prefix beyond kMaxRequestFrame: hostile framing. The server
  // answers with the Protocol code, then closes — there is no way back
  // onto a frame boundary.
  const uint32_t huge = htonl(static_cast<uint32_t>(net::kMaxRequestFrame) + 1);
  ASSERT_EQ(::send(client.fd(), &huge, sizeof(huge), MSG_NOSIGNAL), 4);
  std::string frame;
  ASSERT_EQ(net::ReadFrame(client.fd(), net::kMaxReplyFrame, &frame),
            FrameResult::kOk);
  MagicClient::Reply reply = net::ParseReply(frame);
  EXPECT_EQ(reply.code, WireCode::kProtocol);
  EXPECT_EQ(reply.exit_code(), 7);
  EXPECT_EQ(net::ReadFrame(client.fd(), net::kMaxReplyFrame, &frame),
            FrameResult::kEof);
}

TEST_F(NetServerTest, DeadlineExpiryReportsOnTheFinalFrame) {
  StartServer();
  MagicClient client = Connect();
  ASSERT_EQ(client.Call("PREPARE anc anc(c0, Y)")->code, WireCode::kOk);
  // An already-expired deadline: QUERY reports it as the response code...
  auto expired = client.Call("QUERY anc c0 deadline_ms=0");
  ASSERT_TRUE(expired.ok());
  EXPECT_EQ(expired->code, WireCode::kDeadlineExceeded);
  EXPECT_EQ(expired->exit_code(), 4);
  // ...and STREAM reports it on the final status frame, after whatever
  // row prefix made it out.
  auto streamed = client.Stream("STREAM anc c0 deadline_ms=0",
                                [](const std::string&) { return true; });
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(streamed->code, WireCode::kDeadlineExceeded) << streamed->head;
  // The session survives an expired deadline; it is a request outcome.
  EXPECT_EQ(client.Call("QUERY anc c5")->code, WireCode::kOk);
}

/// A longer chain so a STREAM has many rows in flight to abandon.
class NetServerStreamTest : public NetServerTest {
 protected:
  NetServerStreamTest() : NetServerTest(/*chain=*/400) {}
};

TEST_F(NetServerStreamTest, MidStreamDisconnectCancelsAndReleasesTheSlot) {
  QueryServiceOptions options;
  options.max_pending = 1;  // a leaked admission slot would be visible
  StartServer(options);

  {
    MagicClient client = Connect();
    ASSERT_EQ(client.Call("PREPARE anc anc(c0, Y)")->code, WireCode::kOk);
    // Read exactly one row frame, then vanish without a CLOSE.
    ASSERT_TRUE(net::WriteFrame(client.fd(), "STREAM anc c0"));
    std::string frame;
    ASSERT_EQ(net::ReadFrame(client.fd(), net::kMaxReplyFrame, &frame),
              FrameResult::kOk);
    ASSERT_FALSE(frame.empty());
    EXPECT_EQ(frame[0], '*');
    client.Close();
  }

  // The abandoned cursor must cancel and retire its evaluation: a leaked
  // admission slot (max_pending=1) would wedge the follow-up query, and a
  // leaked evaluation would pin its database version forever. APPLY no
  // longer waits for in-flight work (MVCC publish), so the wedged-slot
  // check is what has teeth here.
  MagicClient fresh = Connect();
  auto applied = fresh.Call("APPLY\n+par(c399, c400).");
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied->code, WireCode::kOk) << applied->head;
  ASSERT_EQ(fresh.Call("PREPARE anc anc(c0, Y)")->code, WireCode::kOk);
  auto query = fresh.Call("QUERY anc c395");
  ASSERT_TRUE(query.ok());
  ASSERT_EQ(query->code, WireCode::kOk) << query->head;
  EXPECT_EQ(query->lines.size(), 5u);  // c396..c400
}

/// Abandoning a stream by predicate: the on_row callback returning false
/// closes the connection; the client reports kCancelled locally.
TEST_F(NetServerStreamTest, ClientSideAbandonReportsCancelled) {
  StartServer();
  MagicClient client = Connect();
  ASSERT_EQ(client.Call("PREPARE anc anc(c0, Y)")->code, WireCode::kOk);
  size_t seen = 0;
  auto reply = client.Stream("STREAM anc c0", [&](const std::string&) {
    return ++seen < 3;  // abandon after the third row
  });
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->code, WireCode::kCancelled);
  EXPECT_EQ(seen, 3u);
  EXPECT_FALSE(client.connected());
}

/// Eight reader connections under one wire APPLY writer: reads must never
/// see a torn write (the two inserted edges land atomically) and every
/// read after the APPLY acks must see the mutated chain.
TEST(NetConcurrencyTest, ConcurrentReadersNeverSeeTornOrStaleWrites) {
  Workload w = MakeAncestorChain(8);  // anc(c0, Y) = 7 rows before the write
  QueryService service(w.program, w.db, {});
  MagicServer server(w.universe, w.program, &service);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kReaders = 8;
  constexpr int kQueriesPerReader = 48;
  std::atomic<bool> applied{false};
  std::atomic<int> torn{0};    // a read that saw 8 rows: half the batch
  std::atomic<int> stale{0};   // a read after the ack that saw 7 rows
  std::atomic<int> errors{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      auto client = MagicClient::Connect(server.host(), server.port());
      if (!client.ok() ||
          client->Call("PREPARE anc anc(c0, Y)")->code != WireCode::kOk) {
        errors.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      for (int q = 0; q < kQueriesPerReader; ++q) {
        // Sample the ack *before* the read: if the APPLY was acked then,
        // this later read must see the mutated chain.
        const bool write_was_acked = applied.load(std::memory_order_seq_cst);
        auto reply = client->Call("QUERY anc c0");
        if (!reply.ok() || !reply->ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        const size_t rows = reply->lines.size();
        if (rows != 7 && rows != 9) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
        if (write_was_acked && rows == 7) {
          stale.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // One wire writer, mid-flight: both edges in ONE batch, so row counts
  // may only ever read 7 or 9 — 8 would be a torn write.
  std::thread writer([&] {
    auto client = MagicClient::Connect(server.host(), server.port());
    ASSERT_TRUE(client.ok());
    auto reply = client->Call("APPLY\n+par(c7, c8).\n+par(c8, c9).");
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->code, WireCode::kOk) << reply->head;
    applied.store(true, std::memory_order_seq_cst);
  });
  writer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(stale.load(), 0);

  // And from a fresh connection, the post-write world is the only world.
  auto client = MagicClient::Connect(server.host(), server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_EQ(client->Call("PREPARE anc anc(c0, Y)")->code, WireCode::kOk);
  auto final_read = client->Call("QUERY anc c0");
  ASSERT_TRUE(final_read.ok());
  EXPECT_EQ(final_read->lines.size(), 9u);
  server.Stop();
}

/// Socket-level admission: connections beyond max_connections get one
/// Overloaded frame and a close, and the code maps to exit 6.
TEST(NetConcurrencyTest, ConnectionOverloadAnswersOverloaded) {
  Workload w = MakeAncestorChain(8);
  QueryService service(w.program, w.db, {});
  net::ServerOptions options;
  options.max_connections = 1;
  MagicServer server(w.universe, w.program, &service, options);
  ASSERT_TRUE(server.Start().ok());

  auto first = MagicClient::Connect(server.host(), server.port());
  ASSERT_TRUE(first.ok());
  // Force the session to be registered before the second connect.
  ASSERT_EQ(first->Call("STATS")->code, WireCode::kOk);

  auto second = MagicClient::Connect(server.host(), server.port());
  ASSERT_TRUE(second.ok());
  std::string frame;
  ASSERT_EQ(net::ReadFrame(second->fd(), net::kMaxReplyFrame, &frame),
            FrameResult::kOk);
  MagicClient::Reply reply = net::ParseReply(frame);
  EXPECT_EQ(reply.code, WireCode::kOverloaded);
  EXPECT_EQ(reply.exit_code(), 6);

  // The first connection is unaffected.
  EXPECT_EQ(first->Call("STATS")->code, WireCode::kOk);
  server.Stop();
}

}  // namespace
}  // namespace magic
