#ifndef TRINIT_BASELINES_KEYWORD_ENGINE_H_
#define TRINIT_BASELINES_KEYWORD_ENGINE_H_

#include <string>

#include "core/engine.h"
#include "query/query.h"
#include "scoring/lm_scorer.h"
#include "topk/topk_processor.h"
#include "xkg/xkg.h"

namespace trinit::baselines {

/// Structure-less entity-search baseline (SLQ/entity-search flavour,
/// paper §6): the query's join structure is thrown away and every
/// constant becomes a soft keyword.
///
/// Scoring: an entity is credited for every triple that mentions it
/// together with any query constant (token constants match softly via
/// the phrase index; the triple's LM emission probability weights the
/// credit). The best-credited entities become bindings of the *first*
/// projection variable; other variables stay unbound.
///
/// This is the "next best state-of-the-art" stand-in for bench E1: it
/// handles single-hop look-ups respectably but cannot express joins —
/// exactly the gap the paper's evaluation exposes (NDCG@5 0.419 vs
/// 0.775).
class KeywordEngine : public core::Engine {
 public:
  KeywordEngine(const xkg::Xkg& xkg, scoring::ScorerOptions scorer_options);

  std::string_view name() const override { return "keyword"; }
  const xkg::Xkg& xkg() const override { return xkg_; }

  /// Executes one request with keyword semantics. Of the processor
  /// overrides only `k` is meaningful here (there is no join and no
  /// relaxation to configure); scorer overrides apply in full. The
  /// budget caps (`timeout_ms`, `max_items_budget`) are likewise not
  /// enforced — the keyword scan has no incremental streams to cut
  /// short — so `deadline_hit` is always false from this engine.
  Result<core::QueryResponse> Execute(
      const core::QueryRequest& request) const override;

 private:
  Result<topk::TopKResult> AnswerWith(const scoring::LmScorer& scorer,
                                      const query::Query& q, int k) const;

  const xkg::Xkg& xkg_;
  scoring::LmScorer scorer_;
};

}  // namespace trinit::baselines

#endif  // TRINIT_BASELINES_KEYWORD_ENGINE_H_
