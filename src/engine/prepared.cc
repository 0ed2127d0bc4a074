#include "engine/prepared.h"

namespace magic {

Result<PreparedQueryForm> PreparedQueryForm::Prepare(
    const Program& program, const Query& exemplar,
    const EngineOptions& options) {
  if (Status st = CheckQueryArgs(*program.universe(), exemplar); !st.ok()) {
    return st;
  }
  Result<std::shared_ptr<const CompiledPlan>> plan =
      CompiledPlan::Compile(program, exemplar, options);
  if (!plan.ok()) return plan.status();
  PreparedQueryForm form;
  form.plan_ = std::move(*plan);
  return form;
}

QueryAnswer PreparedQueryForm::Answer(const std::vector<TermId>& bound_values,
                                      const Database& db) const {
  return plan_->Answer(bound_values, db, QueryLimits{});
}

QueryAnswer PreparedQueryForm::Answer(
    const std::vector<TermId>& bound_values, const Database& db,
    const QueryLimits& limits, const AnswerSink& sink,
    std::optional<std::chrono::steady_clock::time_point> admitted) const {
  return plan_->Answer(bound_values, db, limits, sink, admitted);
}

}  // namespace magic
