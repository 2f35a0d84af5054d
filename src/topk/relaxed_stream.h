#ifndef TRINIT_TOPK_RELAXED_STREAM_H_
#define TRINIT_TOPK_RELAXED_STREAM_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "relax/rewriter.h"
#include "topk/pattern_stream.h"

namespace trinit::topk {

/// One relaxed form of an original pattern: the replacement patterns
/// (one or more), the accumulated chain weight, and the rules applied.
struct Alternative {
  std::vector<query::TriplePattern> patterns;
  double weight = 1.0;
  std::vector<const relax::Rule*> rules;
};

/// Fully evaluates a small conjunctive pattern group (the RHS of an
/// expansion rule such as Figure 4 rule 3) and serves its solutions
/// best-first. Fresh existential variables introduced by the rule are
/// joined over internally and projected away; the emitted bindings cover
/// only the original query's variables.
///
/// Groups are the one deliberately eager spot in the pipeline: their
/// internal join needs every member solution anyway. Construction
/// drains each member `LeafStream` into compact rows (`DrainRows`), then
/// joins the members smallest-first. Each later member is probed through
/// a hash index on its values of the variables that earlier members
/// already bind (a member sharing none is scanned in full: a cross
/// product); bucket hits are re-checked on those values. Solutions are
/// kept as a score plus one row index per member, stably sorted by
/// score, and become Items only when emitted.
class GroupStream : public BindingStream {
 public:
  GroupStream(const xkg::Xkg& xkg, const scoring::LmScorer& scorer,
              const query::VarTable& global_vars,
              const Alternative& alternative, size_t pattern_index);

  const Item* Peek() override;
  void Pop() override;
  double BestPossible() override;
  Stats DecodeStats() const override;

  size_t size() const { return solutions_.size(); }

 private:
  /// One member pattern, in join order.
  struct Member {
    std::unique_ptr<LeafStream> leaf;  // owns the rows' soft matches
    std::vector<LeafStream::Row> rows;  // emission order
    std::vector<query::VarId> vars;     // the pattern's distinct variables
    std::vector<rdf::TermId> values;    // rows x vars, row-major
  };
  /// A join result: its score and where its row picks start in `picks_`
  /// (one row index per member, in join order).
  struct Solution {
    double score = 0.0;
    size_t first_pick = 0;
  };

  Item ItemFor(const Solution& solution) const;

  std::vector<Member> members_;
  std::vector<Solution> solutions_;  // stably sorted by descending score
  std::vector<uint32_t> picks_;
  size_t next_ = 0;
  std::optional<Item> current_;  // solutions_[next_], built on Peek
  Stats stats_;  // member streams' decode work, absorbed at construction

  // Shared item metadata.
  size_t num_global_vars_;
  size_t pattern_index_;
  std::string matched_form_;
  std::vector<const relax::Rule*> rules_;
};

/// The incremental merge of an original pattern with its relaxed forms
/// (paper §4: "query processing utilizes incremental merging of triple
/// patterns and their relaxed forms, invoking a relaxation only when it
/// can contribute to the top-k answers").
///
/// Alternatives are kept *unopened* — at a cheap index-metadata bound —
/// until the bound exceeds what the already-open streams can still
/// deliver. Opening an alternative now only binds cursors over the
/// score-ordered posting lists (no materialization), but it still adds
/// per-Peek work, so `opened_alternatives()` remains the quantity bench
/// E3 compares against the exhaustive rewriter.
class RelaxedStream : public BindingStream {
 public:
  /// `alternatives` must be sorted by descending weight and start with
  /// the original pattern (weight 1, no rules).
  RelaxedStream(const xkg::Xkg& xkg, const scoring::LmScorer& scorer,
                const query::VarTable& global_vars,
                std::vector<Alternative> alternatives, size_t pattern_index);

  const Item* Peek() override;
  void Pop() override;
  double BestPossible() override;
  Stats DecodeStats() const override;

  size_t opened_alternatives() const { return next_unopened_; }
  size_t total_alternatives() const { return alternatives_.size(); }

  /// Cheap upper bound on any item the alternative can emit, computed
  /// from index metadata only: log(weight) + min over cheaply-boundable
  /// member patterns of the scorer's list bound for the pattern's
  /// score-ordered posting list (its heaviest entry over its mass — no
  /// materialization; O(log n) block search plus an O(1) prefix-mass
  /// read). Alternatives whose resolved pattern matches nothing bound to
  /// kExhausted and are never opened.
  static double BoundOf(const xkg::Xkg& xkg, const scoring::LmScorer& scorer,
                        const Alternative& alt);

  /// Scorer-free variant: sound under every ScorerOptions configuration
  /// but looser (store-wide max_count over the span). The stream itself
  /// always uses the scorer-aware overload; this one is the
  /// config-agnostic baseline the bound tests compare it against.
  static double BoundOf(const xkg::Xkg& xkg, const Alternative& alt);

 private:
  void OpenNext();
  /// Opens alternatives while an unopened bound dominates the open ones.
  void EnsureInvariant();
  BindingStream* BestOpen();

  const xkg::Xkg& xkg_;
  const scoring::LmScorer& scorer_;
  const query::VarTable& global_vars_;
  std::vector<Alternative> alternatives_;  // sorted by descending bound
  std::vector<double> bounds_;             // aligned with alternatives_
  size_t pattern_index_;
  size_t next_unopened_ = 0;
  std::vector<std::unique_ptr<BindingStream>> open_;
  StreamHeap open_heap_;  // lazy max-heap over open streams' heads
};

/// Builds the sorted alternative list for one pattern of `query` by
/// enumerating rewrites of the single-pattern sub-query with `rewriter`.
std::vector<Alternative> AlternativesForPattern(
    const relax::Rewriter& rewriter, const query::TriplePattern& pattern);

}  // namespace trinit::topk

#endif  // TRINIT_TOPK_RELAXED_STREAM_H_
