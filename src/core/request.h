#ifndef TRINIT_CORE_REQUEST_H_
#define TRINIT_CORE_REQUEST_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_span.h"
#include "query/query.h"
#include "scoring/lm_scorer.h"
#include "topk/topk_processor.h"

namespace trinit::core {

/// One query execution request — everything that can vary per call, so a
/// single engine opened over one immutable XKG + rule set can serve
/// mixed workloads (ablation configurations, interactive sessions,
/// baselines) without being rebuilt.
///
/// All fields are optional overrides: an unset field inherits the
/// engine's configuration from `Open()` time. Requests are plain values;
/// build them with the `Text`/`Parsed` factories or designated
/// initializers and reuse/copy them freely.
struct QueryRequest {
  /// Query text in the extended triple-pattern syntax. Ignored when
  /// `query` is set.
  std::string text;

  /// Pre-parsed query; takes precedence over `text` when set (saves the
  /// parse for callers that already hold a `query::Query`).
  std::optional<query::Query> query;

  /// Number of answers wanted; <= 0 means the engine's configured
  /// default.
  int k = 0;

  /// Per-request scoring override (bench A2 tweaks these per run).
  std::optional<scoring::ScorerOptions> scorer;

  /// Per-request processor override (rewrite caps, join options, ...).
  /// `k`, `enable_relaxation`, and the budget caps below are applied on
  /// top of this when set.
  std::optional<topk::ProcessorOptions> processor;

  /// Per-request relaxation toggle — the A1 "no relaxation" condition
  /// without a second engine.
  std::optional<bool> enable_relaxation;

  /// Wall-clock budget for this request, in milliseconds; <= 0 means
  /// unlimited. On expiry the processor stops opening new work and
  /// returns the best answers found so far (`QueryResponse::deadline_hit`
  /// reports the truncation).
  double timeout_ms = 0.0;

  /// Cap on rank-join items pulled across the whole request; 0 keeps the
  /// processor's configured cap.
  size_t max_items_budget = 0;

  /// Collect per-stage wall times into `QueryResponse::stages`.
  bool trace = false;

  /// Convenience: a request for `text` with `k` answers.
  static QueryRequest Text(std::string text, int k = 0);

  /// Convenience: a request for an already-parsed query.
  static QueryRequest Parsed(query::Query query, int k = 0);
};

/// One timed execution stage of a request (filled when
/// `QueryRequest::trace` is set).
struct StageTiming {
  std::string stage;  ///< "parse", "process", ...
  double millis = 0.0;
};

/// One named processing counter of a traced request ("items_pulled",
/// "alternatives_opened", ...) — the `TopKResult::RunStats` of the run,
/// flattened so clients, the shell, and benches can observe how lazy
/// the execution actually was without knowing the processor's types.
struct TraceCounter {
  std::string name;
  double value = 0.0;
};

/// Engine-level serving-cache observation for one request (PR 4): did
/// this request hit the answer cache, and what does the shared cache
/// look like now. All zeros when the engine has no serving cache (the
/// baselines) or it is disabled.
struct ServingStats {
  /// This request was served from the answer cache: the ranked answers
  /// are a stored complete run's (byte-identical to uncached
  /// execution), and the rank-join never ran (`QueryResponse::stats` is
  /// all zeros).
  bool answer_hit = false;

  /// XKG generation the request ran against; bumped by every engine
  /// mutation, so two responses with different generations may
  /// legitimately disagree.
  uint64_t generation = 0;

  // Cumulative engine-level cache counters at response time (monotone
  // across the engine's lifetime, not per-request deltas). Sourced from
  // the lock-free metrics registry (PR 10) — a handful of relaxed
  // atomic reads, cheap enough that *every* request fills them, traced
  // or not. All zeros when the engine runs with
  // `ObsOptions::metrics = false` (or has no registry — the baselines);
  // `Trinit::serving_cache().counters()` remains the exact
  // lock-sweeping snapshot for tests and tools.
  size_t answer_hits = 0;
  size_t answer_misses = 0;
  size_t answer_evictions = 0;
  size_t plan_hits = 0;
  size_t plan_misses = 0;
  size_t plan_invalidated = 0;
};

/// The answer to a `QueryRequest`: the ranked top-k plus everything an
/// operator needs to understand how the request was served.
struct QueryResponse {
  /// The ranked answers, projection, and plan trace — one immutable
  /// body, possibly *shared* with the engine's serving cache: an
  /// answer-cache hit aliases the stored entry instead of deep-copying
  /// k answers, and a cacheable miss stores the very body this response
  /// holds. Always set on a successful `Execute`. Note the body's
  /// embedded `result().stats` are the stats of the run that *produced*
  /// it (nonzero even when served from cache); this request's own work
  /// is `stats` below.
  std::shared_ptr<const topk::TopKResult> result_body;

  /// The result body. Requires a successful Execute (non-null body).
  const topk::TopKResult& result() const { return *result_body; }

  /// This request's processing work — the copy-on-serve stats: equal to
  /// `result().stats` when the request actually executed; all zeros on
  /// an answer-cache hit, because the hit did no planning, pulling, or
  /// probing.
  topk::TopKResult::RunStats stats;

  /// Installs an owned, freshly computed result body and adopts its
  /// stats as this request's work (the non-cached execution path of
  /// every `Engine`).
  void AdoptResult(topk::TopKResult result);

  /// Engine-level serving-cache state for this request (see
  /// `ServingStats`).
  ServingStats serving;

  /// End-to-end wall time of `Execute`, milliseconds.
  double wall_ms = 0.0;

  /// Per-stage wall times; empty unless the request asked for a trace.
  std::vector<StageTiming> stages;

  /// Processing counters (the run's `RunStats`); empty unless the
  /// request asked for a trace.
  std::vector<TraceCounter> counters;

  /// The options the request actually ran with, after merging the
  /// engine's defaults with the per-request overrides.
  scoring::ScorerOptions effective_scorer;
  topk::ProcessorOptions effective_processor;

  /// True when the request's deadline expired before the processor
  /// finished — `result()` holds the best answers found in budget.
  bool deadline_hit = false;

  /// Hierarchical trace of this request (PR 10): a root "execute" span
  /// carrying the uniform counter set, with one child per stage
  /// ("parse", "cache", "process"). Set only for traced requests — the
  /// structured superset of `stages`/`counters`, which remain for
  /// source compatibility.
  std::optional<obs::TraceSpan> span;

  /// The span tree as compact JSON (see obs/trace_span.h for the
  /// schema); "{}" when the request was not traced.
  std::string trace_json() const {
    return span.has_value() ? span->ToJson() : std::string("{}");
  }
};

/// Merges an engine's configured defaults with a request's overrides
/// into the options one execution runs with. Shared by every `Engine`
/// implementation so the resolution order is uniform:
/// engine defaults -> request.processor/scorer -> request.k /
/// enable_relaxation / budget caps.
struct ResolvedOptions {
  scoring::ScorerOptions scorer;
  topk::ProcessorOptions processor;
};
ResolvedOptions ResolveRequestOptions(
    const scoring::ScorerOptions& engine_scorer,
    const topk::ProcessorOptions& engine_processor,
    const QueryRequest& request);

/// Yields the query a request asks for without copying: the pre-parsed
/// `request.query` when present, otherwise `request.text` parsed against
/// `dict` into `*storage`. The returned pointer aliases `request` or
/// `storage` and is valid for their lifetime. Shared by every `Engine`
/// implementation.
Result<const query::Query*> ResolveRequestQuery(
    const QueryRequest& request, const rdf::Dictionary& dict,
    query::Query* storage);

/// Flattens a run's `RunStats` into name/value pairs. Shared by every
/// `Engine` implementation (and the span builder) so traced output
/// exposes a uniform counter vocabulary: every key is emitted for
/// every run.
void AppendRunStatsCounters(
    const topk::TopKResult::RunStats& stats,
    std::vector<std::pair<std::string, double>>* counters);

/// Flattens `ServingStats` into `serving_*` name/value pairs.
void AppendServingStatsCounters(
    const ServingStats& serving,
    std::vector<std::pair<std::string, double>>* counters);

/// Legacy flat-list shims over the two helpers above, appending to
/// `response->counters`.
void AppendRunStatsTrace(const topk::TopKResult::RunStats& stats,
                         QueryResponse* response);

/// Flattens `response->serving` into `response->counters` (the
/// `serving_*` names); engines without a serving cache skip it.
void AppendServingStatsTrace(QueryResponse* response);

}  // namespace trinit::core

#endif  // TRINIT_CORE_REQUEST_H_
