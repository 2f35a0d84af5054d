#ifndef TRINIT_TOPK_JOIN_ENGINE_H_
#define TRINIT_TOPK_JOIN_ENGINE_H_

#include <chrono>
#include <memory>
#include <unordered_map>
#include <vector>

#include "plan/join_plan.h"
#include "query/binding.h"
#include "topk/pattern_stream.h"

namespace trinit::topk {

/// Rank-join over one scored stream per query pattern (HRJN-style
/// generalization of the incremental top-k processing the paper adopts
/// from [11]).
///
/// The engine repeatedly pulls from the stream with the highest next
/// score, joins the new item against the already-seen items of the
/// other streams (bindings of shared variables must agree), and stops as
/// soon as the k-th best answer's score reaches the threshold
///
///   T = max_i ( BestPossible_i + sum_{j != i} top1_j )
///
/// where top1_j is the best score stream j has delivered (its first
/// item, since streams descend). Because per-item scores are log
/// probabilities (monotone sum aggregation), no unseen combination can
/// beat T. This is what makes it safe to leave relaxations unopened
/// inside `RelaxedStream`s: their bounds propagate through
/// BestPossible_i.
///
/// Seen-state layout: with a `plan::JoinPlan` (streams must then be
/// constructed in the plan's execution order), each stream's seen items
/// are hash-partitioned per counterpart stream by the pair's join-key
/// signature, so a probe touches only join-compatible candidates —
/// O(matches) instead of O(seen). Without a plan every stream pair is a
/// cross product: the same visitation code then walks the other streams
/// in index order and scans each seen list in full.
class JoinEngine {
 public:
  struct Options {
    int k = 10;
    size_t max_pulls = 200000;  ///< hard safety cap
    /// Absolute wall-clock cutoff for the run; the default-constructed
    /// time point (the epoch) disables it. Checked periodically, so the
    /// engine may overshoot by a handful of pulls.
    std::chrono::steady_clock::time_point deadline{};
    /// Answer-combination semantics across derivations of the same
    /// projection binding: max (paper §4) or probabilistic sum
    /// (ablation A2).
    bool max_over_derivations = true;
    /// Drain every stream completely instead of stopping at the top-k
    /// threshold (the exhaustive comparator of bench E3).
    bool drain = false;
    /// The compiled plan the streams were built under: stream index `i`
    /// must hold the pattern at the plan's execution position `i` (and
    /// the plan must cover exactly the streams given). Null means no join
    /// keys are known: every probe scans the full seen list.
    std::shared_ptr<const plan::JoinPlan> plan;
  };

  struct Stats {
    size_t items_pulled = 0;
    /// Index-list entries the streams actually fetched and scored; with
    /// lazy streams this can exceed `items_pulled` only by the decode
    /// lookahead, and is how much of `items_decoded + items_skipped`
    /// (the full materialization cost) was really paid.
    size_t items_decoded = 0;
    size_t items_skipped = 0;  ///< known index entries never decoded
    /// Candidate combinations *examined* — every seen item a Combine
    /// probe tested against the accumulated binding (the join's probe
    /// work). Hash partitioning shrinks this; the emitted-combination
    /// count below does not depend on the plan.
    size_t combinations_tried = 0;
    /// Complete n-way combinations that reached Emit (the seed's
    /// original `combinations_tried` meaning).
    size_t combinations_emitted = 0;
    size_t partition_probes = 0;     ///< probes narrowed by a hash bucket
    size_t partition_fallbacks = 0;  ///< probes forced to scan linearly
    /// Items pulled per stream (execution order), the join's actual
    /// per-pattern cardinalities for plan-vs-reality reporting.
    std::vector<size_t> per_stream_pulled;
    bool early_terminated = false;  ///< stopped via threshold, not
                                    ///< exhaustion
    bool deadline_hit = false;  ///< stopped because `deadline` expired
  };

  /// `projection` are ids into `vars` that define answer identity; they
  /// must be bound for an answer to count.
  JoinEngine(std::vector<std::unique_ptr<BindingStream>> streams,
             const query::VarTable& vars,
             std::vector<query::VarId> projection, Options options);

  /// Runs to completion and returns answers in descending score order
  /// (at most k). Bindings are over the full `vars` table (the binding
  /// of the best derivation for that projection key).
  std::vector<Answer> Run();

  const Stats& stats() const { return stats_; }

 private:
  /// One stream's seen items plus, with a plan, a partition per
  /// counterpart stream: buckets keyed by the hash of the item's values
  /// on the pair's join-key signature, and a wildcard list for items
  /// that leave a signature variable unbound (they merge with anything,
  /// so every probe must include them).
  struct SeenState {
    std::vector<BindingStream::Item> items;
    std::vector<std::unordered_map<uint64_t, std::vector<uint32_t>>> buckets;
    std::vector<std::vector<uint32_t>> wildcard;
  };

  void Insert(size_t stream_idx, BindingStream::Item item);
  void Combine(size_t stream_idx, const BindingStream::Item& item);
  void Emit(const query::Binding& binding, double score,
            std::vector<DerivationStep> derivation);
  double KthBest() const;
  double Threshold() const;

  std::vector<std::unique_ptr<BindingStream>> streams_;
  const query::VarTable& vars_;
  std::vector<query::VarId> projection_;
  Options options_;
  Stats stats_;

  static constexpr size_t kNoPartner = static_cast<size_t>(-1);
  /// For each pulled stream `s`, the order Combine visits the other
  /// streams in — always a stream with a join partner already in the
  /// frame when one exists, so probes stay hash-narrowed regardless of
  /// which stream was pulled — and that partner, chosen
  /// widest-signature-first (`kNoPartner` = cross product, scanned
  /// linearly; with no plan every step is one, in index order).
  std::vector<std::vector<size_t>> visit_order_;
  std::vector<std::vector<size_t>> probe_partner_;

  std::vector<SeenState> seen_;
  std::vector<double> top1_;  // best delivered score per stream
  std::unordered_map<std::string, Answer> answers_;
};

}  // namespace trinit::topk

#endif  // TRINIT_TOPK_JOIN_ENGINE_H_
