#ifndef TRINIT_BASELINES_EXACT_ENGINE_H_
#define TRINIT_BASELINES_EXACT_ENGINE_H_

#include <string>

#include "core/engine.h"
#include "relax/rule_set.h"
#include "topk/topk_processor.h"

namespace trinit::baselines {

/// Strict conjunctive-match engine: evaluates the query exactly as
/// written (no relaxation rules, no whole-query variants), ranked by the
/// same language-model score. This models the classic SPARQL-endpoint
/// experience the paper's users A-C suffer under. Run it against a
/// KG-only Xkg for the "plain KG" condition or the full Xkg for the
/// "XKG without relaxation" ablation.
class ExactEngine : public core::Engine {
 public:
  ExactEngine(const xkg::Xkg& xkg, scoring::ScorerOptions scorer_options,
              int default_k = 10);

  std::string_view name() const override { return "exact"; }
  const xkg::Xkg& xkg() const override { return xkg_; }

  /// Executes one request with exact semantics: per-request scorer and
  /// processor overrides apply, but relaxation stays off — that is what
  /// makes this engine this baseline.
  Result<core::QueryResponse> Execute(
      const core::QueryRequest& request) const override;

 private:
  const xkg::Xkg& xkg_;
  relax::RuleSet empty_rules_;
  scoring::ScorerOptions scorer_options_;
  int default_k_;
};

}  // namespace trinit::baselines

#endif  // TRINIT_BASELINES_EXACT_ENGINE_H_
