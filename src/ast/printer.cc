#include "ast/printer.h"

#include <algorithm>

namespace magic {

namespace {

using RenameMap = std::map<SymbolId, std::string>;

void PrintTerm(const Universe& u, TermId id, const RenameMap* renames,
               std::string* out) {
  const TermView data = u.terms().Get(id);
  switch (data.kind) {
    case TermKind::kConstant:
      out->append(u.symbols().Name(data.symbol));
      return;
    case TermKind::kVariable: {
      if (renames != nullptr) {
        auto it = renames->find(data.symbol);
        if (it != renames->end()) {
          out->append(it->second);
          return;
        }
      }
      out->append(u.symbols().Name(data.symbol));
      return;
    }
    case TermKind::kInteger:
      out->append(std::to_string(data.value));
      return;
    case TermKind::kAffine: {
      PrintTerm(u, data.children[0], renames, out);
      if (data.mul != 1) {
        out->push_back('*');
        out->append(std::to_string(data.mul));
      }
      if (data.add != 0) {
        out->push_back('+');
        out->append(std::to_string(data.add));
      }
      return;
    }
    case TermKind::kCompound: {
      const std::string& functor = u.symbols().Name(data.symbol);
      if (functor == "." && data.children.size() == 2) {
        out->push_back('[');
        TermId node = id;
        bool first = true;
        while (true) {
          const TermView cell = u.terms().Get(node);
          if (cell.kind == TermKind::kCompound &&
              u.symbols().Name(cell.symbol) == "." &&
              cell.children.size() == 2) {
            if (!first) out->push_back(',');
            first = false;
            PrintTerm(u, cell.children[0], renames, out);
            node = cell.children[1];
            continue;
          }
          if (cell.kind == TermKind::kConstant &&
              u.symbols().Name(cell.symbol) == "[]") {
            break;
          }
          out->push_back('|');
          PrintTerm(u, node, renames, out);
          break;
        }
        out->push_back(']');
        return;
      }
      out->append(functor);
      out->push_back('(');
      for (size_t i = 0; i < data.children.size(); ++i) {
        if (i > 0) out->push_back(',');
        PrintTerm(u, data.children[i], renames, out);
      }
      out->push_back(')');
      return;
    }
  }
}

void PrintLiteral(const Universe& u, const Literal& lit,
                  const RenameMap* renames, std::string* out) {
  out->append(u.symbols().Name(u.predicates().info(lit.pred).name));
  if (lit.args.empty()) return;
  out->push_back('(');
  for (size_t i = 0; i < lit.args.size(); ++i) {
    if (i > 0) out->push_back(',');
    PrintTerm(u, lit.args[i], renames, out);
  }
  out->push_back(')');
}

std::string RuleToStringImpl(const Universe& u, const Rule& rule,
                             const RenameMap* renames) {
  std::string out;
  PrintLiteral(u, rule.head, renames, &out);
  if (!rule.body.empty()) {
    out.append(" :- ");
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (i > 0) out.append(", ");
      PrintLiteral(u, rule.body[i], renames, &out);
    }
  }
  out.push_back('.');
  return out;
}

RenameMap CanonicalRenames(const Universe& u, const Rule& rule) {
  std::vector<SymbolId> vars = LiteralVariables(u, rule.head);
  for (const Literal& lit : rule.body) AppendLiteralVariables(u, lit, &vars);
  RenameMap renames;
  int counter = 0;
  for (SymbolId v : vars) {
    std::string name = "V";
    name += std::to_string(++counter);
    renames.emplace(v, std::move(name));
  }
  return renames;
}

}  // namespace

std::string LiteralToString(const Universe& u, const Literal& lit) {
  std::string out;
  PrintLiteral(u, lit, nullptr, &out);
  return out;
}

std::string RuleToString(const Universe& u, const Rule& rule) {
  return RuleToStringImpl(u, rule, nullptr);
}

std::string FactToString(const Universe& u, const Fact& fact) {
  Literal lit{fact.pred, fact.args};
  return LiteralToString(u, lit) + ".";
}

std::string ProgramToString(const Program& program) {
  std::string out;
  for (const Rule& rule : program.rules()) {
    out.append(RuleToString(program.u(), rule));
    out.push_back('\n');
  }
  return out;
}

std::string SipToString(const Universe& u, const Rule& rule,
                        const SipGraph& sip) {
  std::string out;
  auto member_name = [&](int member) {
    if (member == kSipHead) {
      return u.symbols().Name(u.predicates().info(rule.head.pred).name) +
             "_h";
    }
    return u.symbols().Name(
               u.predicates().info(rule.body[member].pred).name) +
           "." + std::to_string(member);
  };
  for (const SipArc& arc : sip.arcs) {
    out.push_back('{');
    for (size_t i = 0; i < arc.tail.size(); ++i) {
      if (i > 0) out.append(", ");
      out.append(member_name(arc.tail[i]));
    }
    out.append("} ->[");
    for (size_t i = 0; i < arc.label.size(); ++i) {
      if (i > 0) out.push_back(',');
      out.append(u.symbols().Name(arc.label[i]));
    }
    out.append("] ");
    out.append(member_name(arc.target));
    out.push_back('\n');
  }
  return out;
}

std::vector<std::string> CanonicalRuleStrings(const Program& program) {
  std::vector<std::string> result;
  result.reserve(program.rules().size());
  for (const Rule& rule : program.rules()) {
    RenameMap renames = CanonicalRenames(program.u(), rule);
    result.push_back(RuleToStringImpl(program.u(), rule, &renames));
  }
  return result;
}

std::string CanonicalProgramString(const Program& program) {
  std::vector<std::string> lines = CanonicalRuleStrings(program);
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out.append(line);
    out.push_back('\n');
  }
  return out;
}

}  // namespace magic
