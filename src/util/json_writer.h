#ifndef MAGIC_UTIL_JSON_WRITER_H_
#define MAGIC_UTIL_JSON_WRITER_H_

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace magic {

/// Escapes `text` for use inside a JSON string literal (quotes not
/// included). Handles the two mandatory escapes plus control characters;
/// everything else passes through byte-for-byte (the protocol is UTF-8
/// end to end).
inline std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Minimal append-only JSON builder: automatic comma insertion, proper
/// string escaping, no intermediate tree. This is the one serializer
/// behind MetricsRegistry::Json and the STATS document that embeds it
/// (QueryService::MetricsJson) — the hand-rolled printf splicing it
/// replaced produced invalid JSON the moment a form name contained a
/// quote.
///
/// Usage is push-down: Begin/End pairs must nest correctly and every
/// object member starts with Key(). The writer does not validate nesting
/// (it is an internal tool, misuse is a bug caught by the JSON parsers in
/// CI), it only tracks where commas go.
class JsonWriter {
 public:
  JsonWriter() { stack_.push_back(false); }

  std::string& str() { return out_; }
  const std::string& str() const { return out_; }

  JsonWriter& BeginObject() {
    Comma();
    out_ += '{';
    stack_.push_back(false);
    return *this;
  }
  JsonWriter& EndObject() {
    stack_.pop_back();
    out_ += '}';
    return *this;
  }
  JsonWriter& BeginArray() {
    Comma();
    out_ += '[';
    stack_.push_back(false);
    return *this;
  }
  JsonWriter& EndArray() {
    stack_.pop_back();
    out_ += ']';
    return *this;
  }

  /// Object member key; the next value call is its value (no comma
  /// between key and value).
  JsonWriter& Key(std::string_view key) {
    Comma();
    out_ += '"';
    out_ += JsonEscape(key);
    out_ += "\":";
    pending_value_ = true;
    return *this;
  }

  JsonWriter& String(std::string_view value) {
    Comma();
    out_ += '"';
    out_ += JsonEscape(value);
    out_ += '"';
    return *this;
  }
  JsonWriter& Uint(uint64_t value) {
    Comma();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
    out_ += buf;
    return *this;
  }
  JsonWriter& Int(int64_t value) {
    Comma();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRId64, value);
    out_ += buf;
    return *this;
  }
  /// %.6g keeps latencies readable without drowning the line in digits.
  JsonWriter& Double(double value) {
    Comma();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    out_ += buf;
    return *this;
  }
  JsonWriter& Bool(bool value) {
    Comma();
    out_ += value ? "true" : "false";
    return *this;
  }
  /// A value already rendered as JSON by another writer, spliced verbatim.
  JsonWriter& Raw(std::string_view json) {
    Comma();
    out_ += json;
    return *this;
  }

 private:
  void Comma() {
    if (pending_value_) {
      pending_value_ = false;  // value following its Key: no comma
      return;
    }
    if (stack_.back()) out_ += ',';
    stack_.back() = true;
  }

  std::string out_;
  std::vector<bool> stack_;  // per nesting level: "already has an element"
  bool pending_value_ = false;
};

}  // namespace magic

#endif  // MAGIC_UTIL_JSON_WRITER_H_
