#include "ast/universe.h"

#include <string>

namespace magic {

TermId Universe::FreshVariable(std::string_view prefix) {
  while (true) {
    std::string name =
        std::string(prefix) + "_" + std::to_string(fresh_counter_++);
    if (!symbols_.Find(name).has_value()) {
      return terms().MakeVariable(symbols_.Intern(name));
    }
  }
}

TermId Universe::MakeList(const std::vector<TermId>& items) {
  TermId list = NilTerm();
  for (auto it = items.rbegin(); it != items.rend(); ++it) {
    list = Cons(*it, list);
  }
  return list;
}

std::string Universe::TermToString(TermId id) const {
  std::string out;
  TermToStringImpl(id, &out);
  return out;
}

void Universe::TermToStringImpl(TermId id, std::string* out) const {
  const TermView data = terms().Get(id);
  switch (data.kind) {
    case TermKind::kConstant:
    case TermKind::kVariable:
      out->append(symbols_.Name(data.symbol));
      return;
    case TermKind::kInteger:
      out->append(std::to_string(data.value));
      return;
    case TermKind::kAffine: {
      // Formats mul*V+add the way the paper writes index expressions,
      // e.g. "I+1", "K*2+2", "H*5+4".
      const TermView var = terms().Get(data.children[0]);
      if (data.mul != 1) {
        out->append(symbols_.Name(var.symbol));
        out->append("*");
        out->append(std::to_string(data.mul));
      } else {
        out->append(symbols_.Name(var.symbol));
      }
      if (data.add != 0) {
        out->append("+");
        out->append(std::to_string(data.add));
      }
      return;
    }
    case TermKind::kCompound: {
      const std::string& functor = symbols_.Name(data.symbol);
      if (functor == "." && data.children.size() == 2) {
        // List sugar: [a, b | T] / [a, b].
        out->push_back('[');
        TermId node = id;
        bool first = true;
        while (true) {
          const TermView cell = terms().Get(node);
          if (cell.kind == TermKind::kCompound &&
              symbols_.Name(cell.symbol) == "." && cell.children.size() == 2) {
            if (!first) out->push_back(',');
            first = false;
            TermToStringImpl(cell.children[0], out);
            node = cell.children[1];
            continue;
          }
          if (cell.kind == TermKind::kConstant &&
              symbols_.Name(cell.symbol) == "[]") {
            break;  // proper list
          }
          out->push_back('|');
          TermToStringImpl(node, out);
          break;
        }
        out->push_back(']');
        return;
      }
      out->append(functor);
      out->push_back('(');
      for (size_t i = 0; i < data.children.size(); ++i) {
        if (i > 0) out->push_back(',');
        TermToStringImpl(data.children[i], out);
      }
      out->push_back(')');
      return;
    }
  }
}

SymbolId Universe::UniquePredicateName(std::string_view desired,
                                       uint32_t arity) {
  std::string name(desired);
  int suffix = 0;
  while (true) {
    std::optional<SymbolId> sym = symbols_.Find(name);
    if (!sym.has_value() || !predicates_.Find(*sym, arity).has_value()) {
      return symbols_.Intern(name);
    }
    name = std::string(desired) + "_" + std::to_string(++suffix);
  }
}

}  // namespace magic
