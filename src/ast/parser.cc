#include "ast/parser.h"

#include <cctype>
#include <string>

namespace magic {

namespace {

enum class TokKind {
  kIdent,
  kVariable,
  kInteger,
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kComma,
  kPipe,
  kDot,
  kStar,     // * (affine index terms)
  kPlus,     // + (affine index terms)
  kImplies,  // :-
  kQuery,    // ?-
  kEnd,
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
  int64_t value = 0;
  int line = 1;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Result<Token> Next() {
    SkipWhitespaceAndComments();
    Token tok;
    tok.line = line_;
    if (pos_ >= text_.size()) {
      tok.kind = TokKind::kEnd;
      return tok;
    }
    char c = text_[pos_];
    if (c == '(') { ++pos_; tok.kind = TokKind::kLParen; return tok; }
    if (c == ')') { ++pos_; tok.kind = TokKind::kRParen; return tok; }
    if (c == '[') { ++pos_; tok.kind = TokKind::kLBracket; return tok; }
    if (c == ']') { ++pos_; tok.kind = TokKind::kRBracket; return tok; }
    if (c == ',') { ++pos_; tok.kind = TokKind::kComma; return tok; }
    if (c == '|') { ++pos_; tok.kind = TokKind::kPipe; return tok; }
    if (c == '.') { ++pos_; tok.kind = TokKind::kDot; return tok; }
    if (c == '*') { ++pos_; tok.kind = TokKind::kStar; return tok; }
    if (c == '+') { ++pos_; tok.kind = TokKind::kPlus; return tok; }
    if (c == ':') {
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '-') {
        pos_ += 2;
        tok.kind = TokKind::kImplies;
        return tok;
      }
      return Error("expected ':-'");
    }
    if (c == '?') {
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '-') {
        pos_ += 2;
        tok.kind = TokKind::kQuery;
        return tok;
      }
      return Error("expected '?-'");
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && pos_ + 1 < text_.size() &&
         std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))) {
      size_t start = pos_;
      if (c == '-') ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      tok.kind = TokKind::kInteger;
      tok.text = std::string(text_.substr(start, pos_ - start));
      tok.value = std::stoll(tok.text);
      return tok;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        ++pos_;
      }
      tok.text = std::string(text_.substr(start, pos_ - start));
      tok.kind = (std::isupper(static_cast<unsigned char>(c)) || c == '_')
                     ? TokKind::kVariable
                     : TokKind::kIdent;
      return tok;
    }
    return Error(std::string("unexpected character '") + c + "'");
  }

 private:
  void SkipWhitespaceAndComments() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '%' || c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  Status Error(const std::string& msg) const {
    return Status::InvalidArgument("parse error at line " +
                                   std::to_string(line_) + ": " + msg);
  }

  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
};

class Parser {
 public:
  Parser(std::string_view text, std::shared_ptr<Universe> universe)
      : lexer_(text), universe_(std::move(universe)) {}

  Result<ParsedUnit> Run() {
    MAGIC_RETURN_IF_ERROR(Advance());
    struct Clause {
      Literal head;
      std::vector<Literal> body;
      bool is_query = false;
      int line = 1;
    };
    std::vector<Clause> clauses;
    while (current_.kind != TokKind::kEnd) {
      Clause clause;
      clause.line = current_.line;
      if (current_.kind == TokKind::kQuery) {
        MAGIC_RETURN_IF_ERROR(Advance());
        Result<Literal> atom = ParseAtom();
        if (!atom.ok()) return atom.status();
        clause.head = *atom;
        clause.is_query = true;
      } else {
        Result<Literal> head = ParseAtom();
        if (!head.ok()) return head.status();
        clause.head = *head;
        if (current_.kind == TokKind::kImplies) {
          MAGIC_RETURN_IF_ERROR(Advance());
          while (true) {
            Result<Literal> atom = ParseAtom();
            if (!atom.ok()) return atom.status();
            clause.body.push_back(*atom);
            if (current_.kind != TokKind::kComma) break;
            MAGIC_RETURN_IF_ERROR(Advance());
          }
        }
      }
      MAGIC_RETURN_IF_ERROR(Expect(TokKind::kDot, "'.'"));
      clauses.push_back(std::move(clause));
    }

    ParsedUnit unit;
    unit.program = Program(universe_);
    // First pass: predicates heading a rule with a body, or heading a
    // non-ground unit clause, are derived.
    for (const Clause& clause : clauses) {
      if (clause.is_query) continue;
      bool is_rule = !clause.body.empty() ||
                     !LiteralIsGround(*universe_, clause.head);
      if (is_rule) {
        const PredicateInfo& info =
            universe_->predicates().info(clause.head.pred);
        universe_->predicates().GetOrDeclare(info.name, info.arity,
                                             PredKind::kDerived);
      }
    }
    for (Clause& clause : clauses) {
      if (clause.is_query) {
        if (unit.query.has_value()) {
          return Status::InvalidArgument(
              "parse error at line " + std::to_string(clause.line) +
              ": multiple queries (a query is a single predicate occurrence)");
        }
        unit.query = Query{std::move(clause.head)};
        continue;
      }
      bool derived_head = universe_->predicates().info(clause.head.pred).kind !=
                          PredKind::kBase;
      if (clause.body.empty() && !derived_head &&
          LiteralIsGround(*universe_, clause.head)) {
        unit.facts.push_back(Fact{clause.head.pred, std::move(clause.head.args)});
        continue;
      }
      Rule rule;
      rule.head = std::move(clause.head);
      rule.body = std::move(clause.body);
      unit.program.AddRule(std::move(rule));
    }
    return unit;
  }

 private:
  Status Advance() {
    Result<Token> tok = lexer_.Next();
    if (!tok.ok()) return tok.status();
    current_ = *tok;
    return Status::OK();
  }

  Status Expect(TokKind kind, const std::string& what) {
    if (current_.kind != kind) {
      return Status::InvalidArgument("parse error at line " +
                                     std::to_string(current_.line) +
                                     ": expected " + what);
    }
    return Advance();
  }

  Result<Literal> ParseAtom() {
    if (current_.kind != TokKind::kIdent) {
      return Status::InvalidArgument(
          "parse error at line " + std::to_string(current_.line) +
          ": expected a predicate name");
    }
    std::string name = current_.text;
    MAGIC_RETURN_IF_ERROR(Advance());
    std::vector<TermId> args;
    if (current_.kind == TokKind::kLParen) {
      MAGIC_RETURN_IF_ERROR(Advance());
      while (true) {
        Result<TermId> term = ParseTerm();
        if (!term.ok()) return term.status();
        args.push_back(*term);
        if (current_.kind != TokKind::kComma) break;
        MAGIC_RETURN_IF_ERROR(Advance());
      }
      MAGIC_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
    }
    Literal lit;
    lit.pred = universe_->predicates().GetOrDeclare(
        universe_->Sym(name), static_cast<uint32_t>(args.size()),
        PredKind::kBase);
    lit.args = std::move(args);
    return lit;
  }

  Result<TermId> ParseTerm() {
    switch (current_.kind) {
      case TokKind::kVariable: {
        std::string name = current_.text;
        MAGIC_RETURN_IF_ERROR(Advance());
        if (name == "_") return universe_->FreshVariable("_Anon");
        TermId var = universe_->Variable(name);
        // Affine counting-index terms: V, V+a, V*m, V*m+a.
        int64_t mul = 1;
        int64_t add = 0;
        bool affine = false;
        if (current_.kind == TokKind::kStar) {
          MAGIC_RETURN_IF_ERROR(Advance());
          if (current_.kind != TokKind::kInteger) {
            return Status::InvalidArgument(
                "parse error at line " + std::to_string(current_.line) +
                ": expected an integer multiplier after '*'");
          }
          mul = current_.value;
          affine = true;
          MAGIC_RETURN_IF_ERROR(Advance());
        }
        if (current_.kind == TokKind::kPlus) {
          MAGIC_RETURN_IF_ERROR(Advance());
          if (current_.kind != TokKind::kInteger) {
            return Status::InvalidArgument(
                "parse error at line " + std::to_string(current_.line) +
                ": expected an integer offset after '+'");
          }
          add = current_.value;
          affine = true;
          MAGIC_RETURN_IF_ERROR(Advance());
        }
        if (!affine) return var;
        return universe_->Affine(var, mul, add);
      }
      case TokKind::kInteger: {
        int64_t value = current_.value;
        MAGIC_RETURN_IF_ERROR(Advance());
        return universe_->Integer(value);
      }
      case TokKind::kIdent: {
        std::string name = current_.text;
        MAGIC_RETURN_IF_ERROR(Advance());
        if (current_.kind != TokKind::kLParen) {
          return universe_->Constant(name);
        }
        MAGIC_RETURN_IF_ERROR(Advance());
        std::vector<TermId> args;
        while (true) {
          Result<TermId> term = ParseTerm();
          if (!term.ok()) return term.status();
          args.push_back(*term);
          if (current_.kind != TokKind::kComma) break;
          MAGIC_RETURN_IF_ERROR(Advance());
        }
        MAGIC_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
        return universe_->terms().MakeCompound(universe_->Sym(name), args);
      }
      case TokKind::kLBracket: {
        MAGIC_RETURN_IF_ERROR(Advance());
        if (current_.kind == TokKind::kRBracket) {
          MAGIC_RETURN_IF_ERROR(Advance());
          return universe_->NilTerm();
        }
        std::vector<TermId> items;
        while (true) {
          Result<TermId> term = ParseTerm();
          if (!term.ok()) return term.status();
          items.push_back(*term);
          if (current_.kind != TokKind::kComma) break;
          MAGIC_RETURN_IF_ERROR(Advance());
        }
        TermId tail = kInvalidTerm;
        if (current_.kind == TokKind::kPipe) {
          MAGIC_RETURN_IF_ERROR(Advance());
          Result<TermId> term = ParseTerm();
          if (!term.ok()) return term.status();
          tail = *term;
        }
        MAGIC_RETURN_IF_ERROR(Expect(TokKind::kRBracket, "']'"));
        TermId list = tail == kInvalidTerm ? universe_->NilTerm() : tail;
        for (auto it = items.rbegin(); it != items.rend(); ++it) {
          list = universe_->Cons(*it, list);
        }
        return list;
      }
      default:
        return Status::InvalidArgument("parse error at line " +
                                       std::to_string(current_.line) +
                                       ": expected a term");
    }
  }

  Lexer lexer_;
  std::shared_ptr<Universe> universe_;
  Token current_;
};

}  // namespace

Result<ParsedUnit> ParseUnit(std::string_view text,
                             std::shared_ptr<Universe> universe) {
  Parser parser(text, std::move(universe));
  return parser.Run();
}

Result<ParsedUnit> ParseUnit(std::string_view text) {
  return ParseUnit(text, std::make_shared<Universe>());
}

}  // namespace magic
