#include "analysis/safety.h"

#include "analysis/argument_graph.h"
#include "analysis/binding_graph.h"

namespace magic {

namespace {

bool TermHasFunctionSymbol(const Universe& u, TermId term) {
  const TermView data = u.terms().Get(term);
  if (data.kind == TermKind::kCompound) return true;
  for (TermId child : data.children) {
    if (TermHasFunctionSymbol(u, child)) return true;
  }
  return false;
}

}  // namespace

std::string SafetyVerdictName(SafetyVerdict verdict) {
  switch (verdict) {
    case SafetyVerdict::kSafeDatalog: return "safe (Datalog, Thm 10.2)";
    case SafetyVerdict::kSafePositiveCycles:
      return "safe (positive binding-graph cycles, Thm 10.1)";
    case SafetyVerdict::kUnsafeCountingCycle:
      return "unsafe (cyclic reachable argument graph, Thm 10.3)";
    case SafetyVerdict::kSafeIfDataAcyclic:
      return "safe if the data is acyclic (counting caveat, Sec 10)";
    case SafetyVerdict::kUnknown: return "unknown";
  }
  return "unknown";
}

bool ProgramHasFunctionSymbols(const Program& program) {
  const Universe& u = *program.universe();
  for (const Rule& rule : program.rules()) {
    for (TermId arg : rule.head.args) {
      if (TermHasFunctionSymbol(u, arg)) return true;
    }
    for (const Literal& lit : rule.body) {
      for (TermId arg : lit.args) {
        if (TermHasFunctionSymbol(u, arg)) return true;
      }
    }
  }
  return false;
}

SafetyReport CheckMagicSafety(const AdornedProgram& adorned) {
  SafetyReport report;
  const Universe& u = *adorned.program.universe();
  if (!ProgramHasFunctionSymbols(adorned.program)) {
    report.verdict = SafetyVerdict::kSafeDatalog;
    report.explanation =
        "Datalog program: the Herbrand universe of query constants and "
        "database constants is finite, so the magic-sets strategies are "
        "safe (Theorem 10.2)";
    return report;
  }
  BindingGraph graph = BuildBindingGraph(adorned);
  std::optional<bool> positive =
      AllCyclesPositive(graph, u, &report.witness);
  if (positive.has_value() && *positive) {
    report.verdict = SafetyVerdict::kSafePositiveCycles;
    report.explanation =
        "every cycle of the binding graph has positive length, so bound "
        "arguments shrink along recursion and bottom-up evaluation of the "
        "rewritten program terminates (Theorem 10.1)";
  } else {
    report.verdict = SafetyVerdict::kUnknown;
    report.explanation =
        "the positive-cycle condition of Theorem 10.1 could not be "
        "established; termination is not guaranteed by the static check";
  }
  return report;
}

SafetyReport CheckCountingSafety(const AdornedProgram& adorned) {
  SafetyReport report;
  const Universe& u = *adorned.program.universe();
  if (!ProgramHasFunctionSymbols(adorned.program)) {
    // Theorem 10.3 is stated for Datalog: values cannot shrink, so a cycle
    // of bound argument positions regenerates the same value at ever-higher
    // index levels.
    ArgumentGraph graph = BuildArgumentGraph(adorned);
    if (HasReachableCycle(graph, u, &report.witness)) {
      report.verdict = SafetyVerdict::kUnsafeCountingCycle;
      report.explanation =
          "the argument graph has a cycle reachable from the query, so the "
          "counting strategies regenerate the query's counting fact with "
          "monotonically increasing indices and do not terminate "
          "(Theorem 10.3)";
      return report;
    }
    report.verdict = SafetyVerdict::kSafeIfDataAcyclic;
    report.explanation =
        "acyclic argument graph: counting terminates on acyclic data, but "
        "cyclic data can still produce the same value at unboundedly many "
        "index levels (Section 10)";
    return report;
  }
  // With function symbols, Theorem 10.1 applies: positive binding-graph
  // cycles mean the bound arguments shrink along recursion, which bounds
  // the recursion depth and hence the counting indices (list reverse is the
  // appendix's example: its argument positions recur but with strictly
  // shorter terms).
  BindingGraph bgraph = BuildBindingGraph(adorned);
  std::optional<bool> positive =
      AllCyclesPositive(bgraph, u, &report.witness);
  if (positive.has_value() && *positive) {
    report.verdict = SafetyVerdict::kSafePositiveCycles;
    report.explanation =
        "every binding-graph cycle has positive length, which bounds the "
        "recursion depth and hence the counting indices (Theorem 10.1)";
  } else {
    report.verdict = SafetyVerdict::kUnknown;
    report.explanation =
        "no sufficient condition for counting termination applies";
  }
  return report;
}

}  // namespace magic
