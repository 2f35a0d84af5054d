#ifndef TRINIT_RDF_GRAPH_STATS_H_
#define TRINIT_RDF_GRAPH_STATS_H_

#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rdf/triple_store.h"
#include "util/owned_span.h"

namespace trinit::rdf {

/// Per-predicate aggregate statistics over a `TripleStore`.
///
/// These drive two parts of the paper:
///  * the relaxation-rule miner: `w(p1 -> p2) = |args(p1) ∩ args(p2)| /
///    |args(p2)|` where `args(p)` is the set of (subject, object) pairs
///    connected by p in the XKG (paper §3);
///  * the scoring model's selectivity (idf-like) statistics (paper §4).
class GraphStats {
 public:
  struct PredicateStats {
    uint32_t triple_count = 0;       ///< distinct (s,p,o) with this p
    uint64_t evidence_count = 0;     ///< sum of per-triple counts
    uint32_t distinct_subjects = 0;
    uint32_t distinct_objects = 0;
  };

  /// Computes statistics for every predicate occurring in `store`.
  /// The store must outlive the stats object.
  static GraphStats Compute(const TripleStore& store);

  /// The args array of one predicate, span-or-vector: a varint STATS
  /// section decodes into owned vectors, a raw one is viewed in place
  /// as its 8-byte (s,o) pair records.
  using ArgPairs = util::OwnedSpan<std::pair<TermId, TermId>>;

  /// Reassembles stats persisted in a binary snapshot (the storage
  /// layer's load path), skipping the per-predicate sorts `Compute`
  /// pays. `predicates` must be strictly ascending and `args` sorted
  /// strictly ascending per predicate (the miners' set intersections
  /// rely on it); both are re-verified in O(n) (skipped under
  /// SnapshotValidation::kTrusted), content is otherwise trusted to
  /// the snapshot's checksums.
  static Result<GraphStats> FromSnapshot(
      std::vector<TermId> predicates,
      std::unordered_map<TermId, PredicateStats> stats,
      std::unordered_map<TermId, ArgPairs> args,
      SnapshotValidation validation = SnapshotValidation::kFull);

  GraphStats(const GraphStats&) = delete;
  GraphStats& operator=(const GraphStats&) = delete;
  GraphStats(GraphStats&&) = default;
  GraphStats& operator=(GraphStats&&) = default;

  /// All predicates, ascending by id.
  const std::vector<TermId>& predicates() const { return predicates_; }

  /// Stats for `p`, or nullptr if p never occurs as a predicate.
  const PredicateStats* ForPredicate(TermId p) const;

  /// Distinct (subject, object) pairs connected by `p`, sorted
  /// lexicographically. Empty for unknown predicates. The span aliases
  /// internal storage (stats lifetime).
  std::span<const std::pair<TermId, TermId>> Args(TermId p) const;

  /// Private (per-process) bytes held by the args arrays — 0 when they
  /// all view snapshot file bytes.
  size_t resident_bytes() const;

  /// |args(p1) ∩ args(p2)| — same argument order.
  size_t ArgsOverlap(TermId p1, TermId p2) const;

  /// |args(p1) ∩ swap(args(p2))| — overlap with p2's (o,s) pairs; a high
  /// value signals that p2 is (approximately) the inverse of p1, the
  /// evidence behind predicate-inversion rules like hasAdvisor ->
  /// hasStudent (Figure 4, rule 2).
  size_t InverseArgsOverlap(TermId p1, TermId p2) const;

  /// Weight of the mined rewrite rule p1 -> p2 per the paper's formula,
  /// 0 when p2 is unknown or has no args.
  double MinedWeight(TermId p1, TermId p2) const;

  /// Weight for the *inverse* rewrite `?x p1 ?y -> ?y p2 ?x`:
  /// |args(p1) ∩ swap(args(p2))| / |args(p2)|.
  double MinedInverseWeight(TermId p1, TermId p2) const;

 private:
  GraphStats() = default;

  std::vector<TermId> predicates_;
  std::unordered_map<TermId, PredicateStats> stats_;
  std::unordered_map<TermId, ArgPairs> args_;
};

}  // namespace trinit::rdf

#endif  // TRINIT_RDF_GRAPH_STATS_H_
