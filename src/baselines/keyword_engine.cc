#include "baselines/keyword_engine.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "query/parser.h"
#include "util/timer.h"

namespace trinit::baselines {

KeywordEngine::KeywordEngine(const xkg::Xkg& xkg,
                             scoring::ScorerOptions scorer_options)
    : xkg_(xkg), scorer_(xkg, scorer_options) {}

Result<core::QueryResponse> KeywordEngine::Execute(
    const core::QueryRequest& request) const {
  WallTimer total;
  core::QueryResponse response;
  core::ResolvedOptions resolved = core::ResolveRequestOptions(
      scorer_.options(), topk::ProcessorOptions{}, request);

  WallTimer stage;
  query::Query parsed_storage;
  TRINIT_ASSIGN_OR_RETURN(
      const query::Query* q,
      core::ResolveRequestQuery(request, xkg_.dict(), &parsed_storage));
  if (request.trace) {
    response.stages.push_back({"parse", stage.ElapsedMillis()});
  }

  stage.Reset();
  topk::TopKResult computed;
  if (request.scorer.has_value()) {
    // LmScorer is a thin view over the XKG; building one per request is
    // how the scorer override stays engine-state-free.
    scoring::LmScorer scorer(xkg_, resolved.scorer);
    TRINIT_ASSIGN_OR_RETURN(computed,
                            AnswerWith(scorer, *q, resolved.processor.k));
  } else {
    TRINIT_ASSIGN_OR_RETURN(computed,
                            AnswerWith(scorer_, *q, resolved.processor.k));
  }
  response.AdoptResult(std::move(computed));
  if (request.trace) {
    response.stages.push_back({"process", stage.ElapsedMillis()});
    core::AppendRunStatsTrace(response.stats, &response);
  }

  response.effective_scorer = resolved.scorer;
  response.effective_processor = resolved.processor;
  response.wall_ms = total.ElapsedMillis();
  return response;
}

Result<topk::TopKResult> KeywordEngine::AnswerWith(
    const scoring::LmScorer& scorer, const query::Query& q, int k) const {
  TRINIT_RETURN_IF_ERROR(q.Validate());
  query::Query canonical(q.patterns(), q.EffectiveProjection());
  canonical.ResolveAgainst(xkg_.dict());

  // Keyword set: every constant, with token constants expanded softly.
  std::unordered_map<rdf::TermId, double> keywords;  // term -> weight
  for (const query::TriplePattern& pattern : canonical.patterns()) {
    for (const query::Term* slot : {&pattern.s, &pattern.p, &pattern.o}) {
      if (slot->is_variable()) continue;
      if (slot->kind == query::Term::Kind::kToken) {
        for (const auto& cand : xkg_.phrase_index().FindSimilar(
                 slot->text, scorer.options().token_match_threshold)) {
          double& w = keywords[cand.term];
          w = std::max(w, cand.similarity);
        }
      } else if (slot->id != rdf::kNullTerm) {
        keywords[slot->id] = 1.0;
      }
    }
  }

  topk::TopKResult result;
  result.projection = canonical.projection();
  if (keywords.empty()) return result;

  // Credit entities co-occurring with keywords.
  std::unordered_map<rdf::TermId, double> credit;
  std::unordered_map<rdf::TermId, std::vector<rdf::TripleId>> evidence;
  for (const auto& [term, weight] : keywords) {
    // Triples mentioning the keyword in any slot.
    for (auto span : {xkg_.store().Match(term, rdf::kNullTerm, rdf::kNullTerm),
                      xkg_.store().Match(rdf::kNullTerm, term, rdf::kNullTerm),
                      xkg_.store().Match(rdf::kNullTerm, rdf::kNullTerm,
                                         term)}) {
      uint64_t mass = scorer.PatternMass(span);
      for (rdf::TripleId id : span) {
        const rdf::Triple& t = xkg_.store().triple(id);
        double emission =
            std::exp(scorer.ScoreTriple(t, mass)) * weight;
        for (rdf::TermId other : {t.s, t.o}) {
          if (other == term) continue;
          if (keywords.count(other) > 0) continue;
          credit[other] += emission;
          evidence[other].push_back(id);
        }
      }
    }
  }

  std::vector<std::pair<rdf::TermId, double>> ranked(credit.begin(),
                                                     credit.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (ranked.size() > static_cast<size_t>(k)) ranked.resize(k);

  size_t proj_size = result.projection.size();
  for (const auto& [entity, score] : ranked) {
    topk::Answer answer;
    answer.binding = query::Binding(proj_size);
    answer.binding.Bind(0, entity);  // only the first variable is bound
    answer.score = std::log(std::max(score, 1e-300));
    topk::DerivationStep step;
    step.pattern_index = 0;
    step.matched_form = "(structure-less keyword match)";
    step.triples = evidence[entity];
    step.log_score = answer.score;
    answer.derivation.push_back(std::move(step));
    result.answers.push_back(std::move(answer));
  }
  result.stats.items_pulled = credit.size();
  return result;
}

}  // namespace trinit::baselines
