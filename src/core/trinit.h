#ifndef TRINIT_CORE_TRINIT_H_
#define TRINIT_CORE_TRINIT_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "core/engine_metrics.h"
#include "core/request.h"
#include "explain/explanation.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "openie/pipeline.h"
#include "relax/bridge_miner.h"
#include "relax/inversion_miner.h"
#include "relax/synonym_miner.h"
#include "serve/serving_cache.h"
#include "storage/snapshot.h"
#include "suggest/autocomplete.h"
#include "suggest/suggester.h"
#include "synth/corpus_generator.h"
#include "topk/topk_processor.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace trinit::core {

/// Everything tunable about a TriniT instance. These are *defaults*: any
/// of the query-time knobs can be overridden per request through
/// `QueryRequest` without reopening the engine.
struct TrinitOptions {
  scoring::ScorerOptions scorer;
  topk::ProcessorOptions processor;

  /// Which mined rule families to enable (ablation bench A1 toggles
  /// these).
  bool mine_synonyms = true;
  bool mine_inversions = true;
  bool mine_expansions = true;
  relax::SynonymMiner::Options synonym_options;
  relax::InversionMiner::Options inversion_options;
  relax::BridgeMiner::Options bridge_options;

  /// Engine-level serving cache (cross-request plan reuse + answer
  /// LRU). Defaults on; `serving.enabled = false` restores per-request
  /// planning from scratch.
  serve::ServingCacheOptions serving;

  /// How `Open(path)` loads a snapshot: read into an owned buffer
  /// (default) or mmap — raw sections are zero-copy views over either —
  /// and how hard to verify. See `storage::SnapshotReader` for the
  /// mode/verification contract.
  storage::ReadOptions snapshot_read;
  /// How `Save` encodes the snapshot: per-section codec. See
  /// `storage::SnapshotWriter`.
  storage::WriteOptions snapshot_write;

  /// Observability (PR 10): the always-on metrics registry, the
  /// slow-query log's threshold and ring capacity. `obs.metrics =
  /// false` unbinds every instrument (the runtime stand-in for building
  /// with TRINIT_OBS_COMPILED_OUT); see docs/OBSERVABILITY.md.
  obs::ObsOptions obs;
};

/// The TriniT engine — the system of the paper, end to end: an extended
/// knowledge graph, a relaxation rule set (mined + manual + plugged-in
/// operators), the incremental top-k processor, answer explanation, and
/// query suggestion.
///
/// Threading: the engine is internally synchronized by a single
/// reader-writer lock (`state_mu_`). `Execute` (the only query entry
/// point), `Save`, `Explain`, `Suggest`, and `RenderAnswer` take it
/// shared, so any number of threads may query one engine concurrently
/// — `ExecuteBatch` does exactly that. The mutating members
/// (`AddManualRules`, `ExtendKg`, `RunOperator`) take it exclusive:
/// they may now run concurrently with queries — a query observes the
/// engine strictly before or strictly after the mutation,
/// never mid-rebuild — and each bumps the serving cache's generation
/// before releasing the lock so no stale plan or answer survives.
/// Lock ordering: `state_mu_` is always acquired before any serving- or
/// plan-cache shard mutex, never after (see docs/CONCURRENCY.md).
///
/// The reference-returning accessors (`xkg()`, `rules()`,
/// `autocomplete()`) are deliberately unlocked: the references they
/// return would outlive any internal guard. They are safe on a quiesced
/// engine (no concurrent mutator) — the benches' and explorers' usage —
/// and the returned references are invalidated by any mutation.
class Trinit : public Engine {
 public:
  /// Statistics of a FromWorld build.
  struct BuildReport {
    size_t kg_triples = 0;
    size_t extraction_triples = 0;
    size_t corpus_documents = 0;
    size_t corpus_sentences = 0;
    size_t extractions = 0;
    size_t rules_mined = 0;
  };

  Trinit(Trinit&&) = default;
  Trinit& operator=(Trinit&&) = default;

  /// Opens an engine over an existing XKG; mines relaxation rules from
  /// it per `options`.
  static Result<Trinit> Open(xkg::Xkg xkg, TrinitOptions options = {});

  /// Opens an engine from a binary snapshot written by `Save` — the
  /// instant cold start: no TSV parse, no index sort, no rule
  /// re-mining. The dictionary, triple store, permutation indexes,
  /// every score-ordered shape built before the save, graph statistics,
  /// provenance, and the active rule set are restored verbatim, and the
  /// serving cache starts at the snapshot's stamped XKG generation.
  /// `report` (optional) receives what was restored. Corrupt, foreign,
  /// or version-mismatched files yield the typed errors documented on
  /// `storage::SnapshotReader`.
  static Result<Trinit> Open(const std::string& path,
                             TrinitOptions options = {},
                             storage::LoadReport* report = nullptr);

  /// Persists the complete serving state — XKG (dictionary, triples +
  /// confidences + provenance, graph statistics, all permutation
  /// indexes and lazily-built score-ordered shapes as currently
  /// materialized), the active rule set, and the serving-cache
  /// generation — into one versioned binary snapshot at `path`. A
  /// `Trinit::Open(path)` of the result answers byte-identically to
  /// this engine. Takes the engine-state lock shared, so saving is safe
  /// concurrently with queries and with mutators (the snapshot captures
  /// the state strictly before or after any racing mutation).
  Status Save(const std::string& path) const;

  /// Full reproduction pipeline: generate the synthetic world's KG,
  /// verbalize it (plus held-out facts) into a corpus, run Open IE +
  /// linking, build the XKG, mine rules.
  static Result<Trinit> FromWorld(const synth::World& world,
                                  TrinitOptions options = {},
                                  BuildReport* report = nullptr);

  /// Adds user-defined relaxation rules (demo §5), in the
  /// `ParseManualRules` syntax.
  Status AddManualRules(std::string_view text);

  /// Extends the knowledge graph with additional facts — the demo's
  /// "allows users to extend the KG to make up for missing knowledge"
  /// (paper §1). The XKG is rebuilt (O(n log n)); mined rules are *not*
  /// re-mined automatically (call the miners again if the additions are
  /// large). Format: one fact per line, `Subject predicate Object`, in
  /// query term syntax (quoted tokens allowed in any slot).
  Status ExtendKg(std::string_view facts_text);

  /// Runs a plugged-in relaxation operator over the XKG (paper §3's
  /// operator API) and absorbs its rules.
  Status RunOperator(relax::RelaxationOperator& op);

  // ------------------------------------------------------- Engine API

  std::string_view name() const override { return "TriniT"; }

  /// Unlocked snapshot accessor (see class comment): must not race a
  /// mutator; the reference is invalidated by `ExtendKg`.
  const xkg::Xkg& xkg() const override { return XkgUnlocked(); }

  /// The single query entry point: resolves the request's per-call
  /// overrides against the engine defaults, parses `request.text`
  /// (unless a parsed query was supplied), runs the incremental top-k
  /// processor, and reports the answers with timings and the effective
  /// options. Thread-safe (see class comment).
  Result<QueryResponse> Execute(const QueryRequest& request) const override;

  /// Fans a batch of requests across `num_threads` workers over this one
  /// engine (the serving path's first concrete step). `num_threads <= 0`
  /// picks `min(batch size, hardware_concurrency)`. Results are aligned
  /// with `requests`; each is its request's independent success/error.
  std::vector<Result<QueryResponse>> ExecuteBatch(
      std::span<const QueryRequest> requests, int num_threads = 0) const;

  // ----------------------------------------------- exploration extras

  /// Structured explanation of `result.answers[rank]` (demo §5).
  explain::Explanation Explain(const topk::TopKResult& result,
                               size_t rank) const;

  /// Query-reformulation suggestions for a query and its answers
  /// (demo §5).
  std::vector<suggest::Suggestion> Suggest(
      const query::Query& q, const topk::TopKResult& result) const;

  /// Renders `result.answers[rank]`'s projection binding as text.
  std::string RenderAnswer(const topk::TopKResult& result,
                           size_t rank) const;

  /// Prefix auto-completion over the XKG vocabulary (demo §5).
  /// Unlocked snapshot accessor (see class comment): must not race a
  /// mutator.
  const suggest::Autocomplete& autocomplete() const
      TRINIT_NO_THREAD_SAFETY_ANALYSIS {
    return *autocomplete_;
  }

  /// Unlocked snapshot accessor (see class comment): must not race a
  /// mutator.
  const relax::RuleSet& rules() const TRINIT_NO_THREAD_SAFETY_ANALYSIS {
    return rules_;
  }
  const TrinitOptions& options() const { return options_; }

  /// The engine-level serving cache: cross-request plan reuse plus the
  /// bounded answer LRU, with its hit/miss/evict/invalidate counters.
  /// Always present (its options may disable it).
  const serve::ServingCache& serving_cache() const {
    return *serving_cache_;
  }

  /// Point-in-time snapshot of every registered engine metric (PR 10).
  /// Lock-free relaxed reads of the live cells — safe concurrently with
  /// any number of executing requests and with mutators. Empty when the
  /// engine runs with `ObsOptions::metrics = false`. Render with
  /// `obs::RenderPrometheus` / `obs::RenderJson`.
  obs::MetricsSnapshot MetricsSnapshot() const { return registry_->Snapshot(); }

  /// The slow-query log (bounded ring of requests that crossed
  /// `ObsOptions::slow_query_ms`); always present, possibly disabled.
  const obs::SlowQueryLog& slow_query_log() const { return *slow_log_; }

 private:
  /// `initial_generation` seeds the serving cache — 0 for fresh builds,
  /// the snapshot's stamped generation on the `Open(path)` path.
  Trinit(xkg::Xkg xkg, TrinitOptions options,
         uint64_t initial_generation = 0);

  /// The unlocked body behind `xkg()` (see class comment for the
  /// no-concurrent-mutator contract the escape hatch encodes).
  const xkg::Xkg& XkgUnlocked() const TRINIT_NO_THREAD_SAFETY_ANALYSIS {
    return *xkg_;
  }

  /// Engine-state reader-writer lock: queries/Save share, mutators
  /// exclude. Heap-allocated so the (non-movable) mutex survives the
  /// factory-return move of the engine; never null after construction.
  /// Acquired before any cache shard mutex, never after.
  std::unique_ptr<SharedMutex> state_mu_;

  // Stable address for sub-components; the *pointee* is rebuilt by
  // `ExtendKg` under the exclusive lock.
  std::unique_ptr<xkg::Xkg> xkg_ TRINIT_PT_GUARDED_BY(state_mu_);
  TrinitOptions options_;  // immutable after construction
  relax::RuleSet rules_ TRINIT_GUARDED_BY(state_mu_);
  std::unique_ptr<suggest::Suggester> suggester_ TRINIT_GUARDED_BY(state_mu_);
  std::unique_ptr<suggest::Autocomplete> autocomplete_
      TRINIT_GUARDED_BY(state_mu_);
  std::unique_ptr<explain::ExplanationBuilder> explainer_
      TRINIT_GUARDED_BY(state_mu_);
  // Shared across every request; survives mutations via generation
  // bumps (stale entries are invalidated lazily, never served).
  // Internally synchronized — safe to touch under the shared lock.
  std::unique_ptr<serve::ServingCache> serving_cache_;

  // ------------------------------------------------ observability (PR 10)

  /// Fills `response.serving`'s registry-sourced cumulative counters,
  /// records the per-request registry observations (latency, deadline,
  /// topk work, cardinality error), and — for traced or slow requests —
  /// builds the span tree and feeds the slow-query log.
  /// Called at the end of `Execute` on every path that has a response.
  void FinishRequestObservation(const QueryRequest& request,
                                const query::Query& q, double parse_ms,
                                double cache_ms, bool cache_stage_ran,
                                double process_ms, bool process_stage_ran,
                                QueryResponse* response) const;

  /// Records storage-layer metrics of one snapshot open.
  void RecordOpenMetrics(const storage::LoadReport& report,
                         double open_ms) const;

  /// Metric cell storage, never null; heap-allocated so handles (raw
  /// pointers into it) survive the factory-return move of the engine.
  /// Internally synchronized; increments are lock-free (see
  /// obs/metrics.h). Empty (nothing registered) when
  /// `ObsOptions::metrics` is false.
  std::unique_ptr<obs::MetricsRegistry> registry_;
  /// The engine's bound instrument handles; all unbound no-ops when
  /// `ObsOptions::metrics` is false.
  EngineMetrics metrics_;
  /// Bounded slow-request ring, never null (possibly disabled);
  /// internally synchronized, touched only for requests already slower
  /// than the threshold.
  std::unique_ptr<obs::SlowQueryLog> slow_log_;
};

}  // namespace trinit::core

#endif  // TRINIT_CORE_TRINIT_H_
