#ifndef TRINIT_TOPK_TOPK_PROCESSOR_H_
#define TRINIT_TOPK_TOPK_PROCESSOR_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "plan/planner.h"
#include "query/query.h"
#include "relax/rewriter.h"
#include "relax/rule_set.h"
#include "scoring/lm_scorer.h"
#include "topk/answer.h"
#include "topk/join_engine.h"
#include "util/result.h"
#include "xkg/xkg.h"

namespace trinit::topk {

/// Result of a top-k run: answers in descending score order, projected
/// onto the original query's effective projection, plus processing
/// statistics (how much of the rewrite space was actually touched).
struct TopKResult {
  /// Projection variable names, the order `Answer::binding` prefixes
  /// refer to... (bindings are over the evaluated query's full variable
  /// table; `projection_ids` indexes them).
  std::vector<std::string> projection;

  std::vector<Answer> answers;

  /// One execution step of the original variant's compiled plan: which
  /// pattern ran at this position, what the planner estimated for it,
  /// and what the rank-join actually pulled — the estimated-vs-actual
  /// cardinality exhibit of the trace.
  struct PlanStep {
    size_t pattern = 0;        ///< original pattern index
    double estimated = 0.0;    ///< planner's cardinality estimate
    size_t pulled = 0;         ///< items the stream actually delivered
  };
  /// Execution-ordered plan of the first evaluated variant (the
  /// original query). Every variant runs under a compiled plan, so this
  /// is filled whenever a variant was evaluated; with
  /// `use_cost_order == false` the order shown is the parser's.
  std::vector<PlanStep> plan;

  struct RunStats {
    size_t query_variants_total = 0;     ///< multi-pattern-rule variants
    size_t query_variants_evaluated = 0;
    size_t alternatives_total = 0;   ///< per-pattern relaxed forms known
    size_t alternatives_opened = 0;  ///< ... actually opened
    size_t items_pulled = 0;   ///< items the rank-join consumed
    size_t items_decoded = 0;  ///< index-list entries fetched and scored
    size_t items_skipped = 0;  ///< known index entries never decoded
    /// Candidate combinations the rank-join *examined* (probe work; see
    /// `JoinEngine::Stats::combinations_tried`).
    size_t combinations_tried = 0;
    size_t combinations_emitted = 0;  ///< complete join combinations
    size_t partition_probes = 0;     ///< hash-narrowed seen-state probes
    size_t partition_fallbacks = 0;  ///< probes degraded to linear scan
    size_t plan_cache_hits = 0;    ///< variants served a cached plan
    size_t plan_cache_misses = 0;  ///< structures compiled fresh
    /// The run's wall-clock deadline expired before the rewrite space
    /// was fully explored; `answers` holds the best found in budget.
    bool deadline_hit = false;
  } stats;

  /// Value bound to projection variable `idx` of `answers[rank]`.
  rdf::TermId ValueAt(size_t rank, size_t idx) const;
};

/// Configuration of the incremental processor.
struct ProcessorOptions {
  int k = 10;
  bool enable_relaxation = true;
  relax::Rewriter::Options rewrite;  ///< per-pattern alternative chains
  JoinEngine::Options join;          ///< k is overridden from `k` above
  /// Cap on whole-query variants produced by multi-pattern-LHS rules
  /// (e.g. Figure 4 rule 1); per-pattern rules are unlimited-by-count
  /// and bounded by weight instead.
  size_t max_query_variants = 24;
  /// Order each variant's `plan::JoinPlan` by cost and build the
  /// streams in that order (selective patterns first). False keeps the
  /// parser's pattern order; the plan still carries the join-key
  /// signatures, so probing stays hash-partitioned either way (the
  /// bench_p2 `parser` comparator).
  bool use_cost_order = true;
  /// Wall-clock budget for one `Answer` call, in milliseconds; <= 0
  /// means unlimited. On expiry the processor stops pulling work and
  /// returns the best answers found so far (`RunStats::deadline_hit`).
  double deadline_ms = 0.0;
  /// Explore the *same* rewrite space with no laziness: evaluate every
  /// variant, open every alternative eagerly, drain every stream. Same
  /// answers, strictly more work — the paper's "entire space of possible
  /// rewritings" comparator (§4). Use via `ExhaustiveProcessor`.
  bool exhaustive = false;
};

/// TriniT's incremental top-k query processor (paper §4): per-pattern
/// index lists served in score order, relaxed forms merged in lazily
/// ("invoking a relaxation only when it can contribute to the top-k
/// answers"), rank-join with early termination.
///
/// Rules whose LHS spans multiple patterns (structural rules like
/// Figure 4 rule 1) cannot be confined to one pattern's alternative
/// list; they are handled as whole-query *variants*, themselves
/// processed best-weight-first with the same "only if it can still
/// contribute" cutoff.
///
/// Threading: a processor holds no per-call mutable state — rank-join
/// seen-state, streams, and deadlines live on `Answer`'s stack — so
/// one processor serves concurrent `Answer` calls with no lock of its
/// own. The two structures it touches that *are* shared (the borrowed
/// `plan::PlanCache` and the XKG's lazy score shapes) are internally
/// synchronized; see docs/CONCURRENCY.md.
class TopKProcessor {
 public:
  /// `shared_plan_cache`, when non-null, is *borrowed* — the serving
  /// path hands every request's processor the engine-level cross-request
  /// cache (see `serve::ServingCache`) and keeps it alive longer than
  /// the processor. Null (the default) gives the processor a private
  /// cache with its own lifetime, the pre-PR-4 behavior.
  TopKProcessor(const xkg::Xkg& xkg, const relax::RuleSet& rules,
                scoring::ScorerOptions scorer_options = {},
                ProcessorOptions options = {},
                const plan::PlanCache* shared_plan_cache = nullptr);

  /// Answers `q` (which need not be resolved yet) and returns the top-k.
  Result<TopKResult> Answer(const query::Query& q) const;

  const ProcessorOptions& options() const { return options_; }

 private:
  struct Variant {
    query::Query query;
    double weight = 1.0;
    std::vector<const relax::Rule*> rules;
  };

  std::vector<Variant> QueryVariants(const query::Query& q) const;

  void EvaluateVariant(const Variant& variant,
                       const std::vector<std::string>& projection,
                       std::chrono::steady_clock::time_point deadline,
                       TopKResult* result) const;

  const xkg::Xkg& xkg_;
  const relax::RuleSet& rules_;
  scoring::LmScorer scorer_;
  ProcessorOptions options_;
  // Rules with multi-pattern LHS, for whole-query variant enumeration.
  relax::RuleSet structural_rules_;
  // Compiled plans by structural signature, thread-safe for concurrent
  // Answer calls. Either borrowed from the engine's serving cache
  // (cross-request scope; `owned_plan_cache_` stays null) or private to
  // this processor (owned, behind a unique_ptr so the processor stays
  // movable — the cache holds mutexes).
  std::unique_ptr<plan::PlanCache> owned_plan_cache_;
  const plan::PlanCache* plan_cache_;
};

}  // namespace trinit::topk

#endif  // TRINIT_TOPK_TOPK_PROCESSOR_H_
