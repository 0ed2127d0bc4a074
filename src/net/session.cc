#include "net/session.h"

#include <cstdlib>
#include <optional>
#include <sstream>
#include <utility>

#include "ast/parser.h"
#include "ast/program.h"
#include "storage/write_batch.h"

namespace magic {
namespace net {

namespace {

/// Splits one line on spaces/tabs (runs collapse; no quoting — seeds and
/// names are space-free by grammar).
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(std::move(token));
  return tokens;
}

bool IsOptionToken(const std::string& token, const char* key,
                   std::string* value) {
  std::string prefix = std::string(key) + "=";
  if (token.rfind(prefix, 0) != 0) return false;
  *value = token.substr(prefix.size());
  return true;
}

/// Request-level options a QUERY/STREAM/PREPARE may trail with. Consumes
/// matching tokens from the back of `tokens`; unknown `key=value`-shaped
/// tokens are left in place (they may be a legitimate seed like `f(x=1)` —
/// the seed parser owns rejecting them).
struct RequestOptions {
  QueryLimits limits;
  std::optional<Strategy> strategy;
  std::optional<std::string> sip;
  bool profile = false;  // append per-rule fixpoint profile lines
  std::string error;  // nonempty = malformed option value

  static RequestOptions Consume(std::vector<std::string>* tokens) {
    RequestOptions opts;
    while (!tokens->empty()) {
      const std::string& token = tokens->back();
      std::string value;
      if (IsOptionToken(token, "limit", &value)) {
        char* end = nullptr;
        opts.limits.row_limit = std::strtoull(value.c_str(), &end, 10);
        if (value.empty() || *end != '\0') {
          opts.error = "bad limit= value: " + value;
        }
      } else if (IsOptionToken(token, "deadline_ms", &value)) {
        char* end = nullptr;
        unsigned long long ms = std::strtoull(value.c_str(), &end, 10);
        if (value.empty() || *end != '\0') {
          opts.error = "bad deadline_ms= value: " + value;
        } else {
          opts.limits.deadline = std::chrono::milliseconds(ms);
        }
      } else if (IsOptionToken(token, "strategy", &value)) {
        opts.strategy = StrategyFromName(value);
        if (!opts.strategy.has_value()) {
          opts.error = "unknown strategy: " + value;
        }
      } else if (IsOptionToken(token, "sip", &value)) {
        opts.sip = value;
      } else if (IsOptionToken(token, "profile", &value)) {
        if (value == "1") {
          opts.profile = true;
        } else if (value == "0") {
          opts.profile = false;
        } else {
          opts.error = "bad profile= value: " + value + " (want 0 or 1)";
        }
      } else {
        break;
      }
      tokens->pop_back();
      if (!opts.error.empty()) break;
    }
    return opts;
  }
};

/// Renders one answer tuple, tab-separated.
std::string RenderTuple(const Universe& u, const std::vector<TermId>& tuple) {
  std::string row;
  for (TermId term : tuple) {
    if (!row.empty()) row += "\t";
    row += u.TermToString(term);
  }
  return row;
}

/// The head line every answer response starts with.
std::string AnswerHead(WireCode code, size_t rows, AnswerStatus outcome,
                       bool cached) {
  std::string head = WireCodeName(code);
  head += " rows=" + std::to_string(rows);
  head += " outcome=" + AnswerStatusName(outcome);
  head += cached ? " cached=1" : " cached=0";
  return head;
}

/// One `%`-prefixed line per rule of the evaluated program, carrying this
/// run's fixpoint profile. Cache-served answers ran no fixpoint and have an
/// empty profile, so they append nothing.
void AppendProfileLines(const QueryAnswer& answer, std::string* out) {
  for (size_t i = 0; i < answer.profile.size(); ++i) {
    const RuleProfile& c = answer.profile[i].counts;
    *out += "\n% " + std::to_string(i) +
            " evals=" + std::to_string(c.evals) +
            " firings=" + std::to_string(c.firings) +
            " new_facts=" + std::to_string(c.new_facts) +
            " duplicate_facts=" + std::to_string(c.duplicate_facts) +
            " join_probes=" + std::to_string(c.join_probes) +
            " delta_rows=" + std::to_string(c.delta_rows) +
            " rule=" + answer.profile[i].rule;
  }
}

}  // namespace

void Session::Run() {
  std::string request;
  while (true) {
    FrameResult result = ReadFrame(fd_, ctx_->max_request_frame, &request);
    switch (result) {
      case FrameResult::kOk:
        break;
      case FrameResult::kEof:
        return;  // clean disconnect on a frame boundary
      case FrameResult::kOversized:
        // The length prefix itself is hostile; after answering there is no
        // way back onto a frame boundary, so the connection ends here.
        Reply(WireCode::kProtocol,
              "request frame exceeds " +
                  std::to_string(ctx_->max_request_frame) + " bytes");
        return;
      case FrameResult::kTorn:
      case FrameResult::kError:
        return;  // peer vanished mid-frame; nobody is listening for a reply
    }
    if (!HandleFrame(request)) return;
  }
}

bool Session::HandleFrame(const std::string& request) {
  size_t eol = request.find('\n');
  std::string first_line =
      eol == std::string::npos ? request : request.substr(0, eol);
  std::string payload =
      eol == std::string::npos ? std::string() : request.substr(eol + 1);
  std::vector<std::string> tokens = Tokenize(first_line);
  if (tokens.empty()) {
    return Reply(WireCode::kInvalidArgument, "empty request");
  }
  std::string verb = tokens.front();
  tokens.erase(tokens.begin());
  if (verb == "PREPARE") return HandlePrepare(tokens);
  if (verb == "QUERY") return HandleQuery(tokens, /*streaming=*/false);
  if (verb == "STREAM") return HandleQuery(tokens, /*streaming=*/true);
  if (verb == "APPLY") return HandleApply(payload);
  if (verb == "STATS") return HandleStats();
  if (verb == "METRICS") return HandleMetrics(tokens);
  if (verb == "CLOSE") {
    Reply(WireCode::kOk, "bye");
    return false;
  }
  return Reply(WireCode::kInvalidArgument, "unknown verb '" + verb + "'");
}

bool Session::HandlePrepare(const std::vector<std::string>& args) {
  std::vector<std::string> tokens = args;
  RequestOptions opts = RequestOptions::Consume(&tokens);
  if (!opts.error.empty()) {
    return Reply(WireCode::kInvalidArgument, opts.error);
  }
  if (tokens.size() < 2) {
    return Reply(WireCode::kInvalidArgument,
                 "usage: PREPARE <name> <query> [strategy=S] [sip=S]");
  }
  std::string name = tokens.front();
  std::string text;
  for (size_t i = 1; i < tokens.size(); ++i) {
    if (!text.empty()) text += " ";
    text += tokens[i];
  }
  if (text.rfind("?-", 0) != 0) text = "?- " + text;
  size_t last = text.find_last_not_of(" \t");
  text.resize(last + 1);
  if (text.back() != '.') text += '.';

  auto parsed = ParseUnit(text, ctx_->universe);
  if (!parsed.ok()) {
    return Reply(WireCode::kInvalidArgument, parsed.status().message());
  }
  if (!parsed->query.has_value() || !parsed->facts.empty() ||
      !parsed->program.rules().empty()) {
    return Reply(WireCode::kInvalidArgument, "not a query: " + text);
  }
  const Universe& u = *ctx_->universe;
  // The freeze check runs before Prepare: a query naming a brand-new
  // predicate just declared it (harmlessly — nothing serves it), and the
  // rejection must name the predicate so the client knows which one.
  if (Status st = CheckFrozenPredicate(u, parsed->query->goal.pred,
                                       ctx_->frozen_preds);
      !st.ok()) {
    return Reply(ToWireCode(st.code()), st.message());
  }

  QueryRequest request;
  request.query = *parsed->query;
  request.strategy = opts.strategy;
  request.sip = opts.sip;
  Result<QueryService::FormHandle> prepared = ctx_->service->Prepare(request);
  if (!prepared.ok()) {
    return Reply(ToWireCode(prepared.status().code()),
                 prepared.status().message());
  }
  const QueryService::FormHandle handle = *prepared;
  forms_[name] = PreparedEntry{handle, request.query};
  return Reply(WireCode::kOk, "form=" + name + " adornment=" +
                                  handle.adornment().ToString() + " bound=" +
                                  std::to_string(handle.bound_arity()));
}

bool Session::HandleQuery(const std::vector<std::string>& args,
                          bool streaming) {
  std::vector<std::string> tokens = args;
  RequestOptions opts = RequestOptions::Consume(&tokens);
  if (!opts.error.empty()) {
    return Reply(WireCode::kInvalidArgument, opts.error);
  }
  if (tokens.empty()) {
    return Reply(WireCode::kInvalidArgument,
                 std::string("usage: ") + (streaming ? "STREAM" : "QUERY") +
                     " <name> [seed...] [limit=N] [deadline_ms=N] "
                     "[profile=1]");
  }
  std::string name = tokens.front();
  auto it = forms_.find(name);
  if (it == forms_.end()) {
    return Reply(WireCode::kNotFound,
                 "unknown form '" + name + "' (PREPARE it first)");
  }
  PreparedEntry& entry = it->second;
  Universe& u = *ctx_->universe;

  // Seeds: one ground term per bound position, or none to reuse the
  // PREPARE text's constants. Each seed parses through the real term
  // grammar by wrapping it as a fact of a scratch predicate — so integers,
  // atoms, lists, and compounds all work — into the root universe (new
  // constants are fine; the scratch predicate sits above the freeze line
  // and is never served).
  std::vector<TermId> seeds;
  if (tokens.size() > 1) {
    if (tokens.size() - 1 != entry.handle.bound_arity()) {
      return Reply(WireCode::kInvalidArgument,
                   "form '" + name + "' takes " +
                       std::to_string(entry.handle.bound_arity()) +
                       " seed(s), got " + std::to_string(tokens.size() - 1));
    }
    for (size_t i = 1; i < tokens.size(); ++i) {
      auto wrapped =
          ParseUnit("magicdb_wire_seed(" + tokens[i] + ").", ctx_->universe);
      if (!wrapped.ok() || wrapped->facts.size() != 1 ||
          !u.terms().IsGround(wrapped->facts[0].args[0])) {
        return Reply(WireCode::kInvalidArgument,
                     "bad seed '" + tokens[i] + "': not a ground term");
      }
      seeds.push_back(wrapped->facts[0].args[0]);
    }
  } else {
    seeds = QueryBoundArgs(u, entry.query);
  }

  std::vector<int> free_positions = QueryFreePositions(u, entry.query);

  if (!streaming) {
    QueryAnswer answer =
        ctx_->service->Answer(entry.handle, std::move(seeds), opts.limits);
    WireCode code = ToWireCode(answer.outcome, answer.status.code());
    if (!answer.status.ok()) {
      return Reply(code, answer.status.message());
    }
    std::string response = AnswerHead(code, answer.tuples.size(),
                                      answer.outcome, answer.from_cache);
    if (free_positions.empty()) {
      response += answer.tuples.empty() ? "\nfalse" : "\ntrue";
    } else {
      for (const auto& tuple : answer.tuples) {
        response += "\n" + RenderTuple(u, tuple);
      }
    }
    if (opts.profile) AppendProfileLines(answer, &response);
    return WriteFrame(fd_, response);
  }

  AnswerCursor cursor =
      ctx_->service->Stream(entry.handle, std::move(seeds), opts.limits);
  constexpr size_t kChunk = 64;
  std::vector<std::vector<TermId>> chunk;
  size_t rows = 0;
  while (cursor.Next(kChunk, &chunk)) {
    rows += chunk.size();
    if (free_positions.empty()) continue;  // boolean: count only
    for (const auto& tuple : chunk) {
      if (!WriteFrame(fd_, "*" + RenderTuple(u, tuple))) {
        // Client vanished mid-stream: cancel the evaluation so the worker
        // stops deriving rows nobody reads, then end the session (Finish
        // joins the evaluation, releasing its admission slot).
        cursor.Cancel();
        cursor.Finish();
        return false;
      }
    }
  }
  const QueryAnswer& final_answer = cursor.Finish();
  WireCode code =
      ToWireCode(final_answer.outcome, final_answer.status.code());
  if (!final_answer.status.ok()) {
    return Reply(code, final_answer.status.message());
  }
  std::string head = AnswerHead(code, rows, final_answer.outcome,
                                final_answer.from_cache);
  if (free_positions.empty()) head += rows == 0 ? "\nfalse" : "\ntrue";
  if (opts.profile) AppendProfileLines(final_answer, &head);
  return WriteFrame(fd_, head);
}

bool Session::HandleApply(const std::string& payload) {
  WriteBatch batch;
  std::istringstream in(payload);
  std::string line;
  size_t mutation_lines = 0;
  while (std::getline(in, line)) {
    size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '%') continue;
    ++mutation_lines;
    if (Status st =
            ParseMutationLine(line.substr(start), ctx_->universe, &batch);
        !st.ok()) {
      return Reply(ToWireCode(st.code()),
                   "bad mutation \"" + line + "\": " + st.message());
    }
  }
  if (mutation_lines == 0) {
    return Reply(WireCode::kInvalidArgument,
                 "APPLY needs mutation lines (one per line after the verb)");
  }
  // Same freeze check as the REPL: a mutation naming a predicate declared
  // after serving started is rejected with the predicate's name.
  if (Status st = CheckFrozenPredicates(*ctx_->universe, batch,
                                        ctx_->frozen_preds);
      !st.ok()) {
    return Reply(ToWireCode(st.code()), st.message());
  }
  Result<WriteResult> applied = ctx_->service->ApplyWrites(batch);
  if (!applied.ok()) {
    return Reply(ToWireCode(applied.status().code()),
                 applied.status().message());
  }
  return Reply(WireCode::kOk,
               "inserted=" + std::to_string(applied->inserted) +
                   " retracted=" + std::to_string(applied->retracted) +
                   " cleared=" + std::to_string(applied->cleared) +
                   " mutated=" + std::to_string(applied->relations_mutated));
}

bool Session::HandleStats() {
  return Reply(WireCode::kOk, ctx_->service->stats().Summary() + "\n" +
                                  ctx_->service->MetricsJson());
}

bool Session::HandleMetrics(const std::vector<std::string>& args) {
  if (args.size() == 1 && args[0] == "json") {
    return Reply(WireCode::kOk,
                 "format=json\n" + ctx_->service->MetricsJson());
  }
  if (!args.empty()) {
    return Reply(WireCode::kInvalidArgument, "usage: METRICS [json]");
  }
  return Reply(WireCode::kOk,
               "format=prometheus\n" + ctx_->service->MetricsText());
}

bool Session::Reply(WireCode code, const std::string& text) {
  std::string frame = WireCodeName(code);
  if (!text.empty()) {
    frame += " ";
    frame += text;
  }
  return WriteFrame(fd_, frame);
}

}  // namespace net
}  // namespace magic
