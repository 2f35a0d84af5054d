#ifndef TRINIT_PLAN_JOIN_PLAN_H_
#define TRINIT_PLAN_JOIN_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/binding.h"
#include "query/query.h"

namespace trinit::plan {

/// Selectivity estimate for one triple pattern, derived from index
/// metadata only (no decoding): the score-ordered block length is the
/// estimated match cardinality, its prefix-sum mass the total evidence
/// behind the block.
struct PatternEstimate {
  size_t pattern = 0;        ///< original pattern index in the query
  double cardinality = 0.0;  ///< estimated result-list length
  uint64_t mass = 0;         ///< score-ordered block evidence mass
  /// False when a token (soft-match) slot forced a wildcard guess; the
  /// cardinality is then a coarse upper bound rather than an exact
  /// count. Diagnostic (trace/tests) — the greedy order ranks exact and
  /// inexact estimates uniformly.
  bool exact = true;
  /// Fan-out statistics of the pattern's constant predicate, from
  /// `GraphStats` (0 when the predicate is a variable, a token, or
  /// unknown). The greedy order divides `cardinality` by these when the
  /// corresponding slot's variable is already bound by the ordered
  /// prefix: `cardinality / distinct_subjects` is the expected rows
  /// *per subject binding* — an estimate of join **output**, not input
  /// size, so a huge-but-narrow pattern (many triples, one object per
  /// subject) ranks ahead of a small-but-fanning one.
  double distinct_subjects = 0.0;
  double distinct_objects = 0.0;
};

/// The compiled execution shape of one conjunctive query: a cost-based
/// pattern order plus the precomputed join-key signature (the shared
/// `VarId`s) for every stream pair, so the rank-join can hash-partition
/// its seen items instead of probing every one linearly.
///
/// All pairwise structures are indexed by *execution position* (the
/// order streams are actually built in), not by original pattern index;
/// `order[pos]` maps back. Plans are immutable once compiled and shared
/// by `shared_ptr` across variants and worker threads.
struct JoinPlan {
  /// Execution position -> original pattern index. Selective patterns
  /// first, preferring patterns connected (by a shared variable) to the
  /// already-ordered prefix so the join frontier stays narrow.
  std::vector<size_t> order;

  /// Per-pattern estimates, indexed by original pattern index.
  std::vector<PatternEstimate> estimates;

  /// `join_keys[a][b]` = sorted shared `VarId`s between the patterns at
  /// execution positions `a` and `b` (symmetric; empty when the pair
  /// shares no variable and joins as a cross product).
  std::vector<std::vector<std::vector<query::VarId>>> join_keys;

  /// For each execution position `b`, the counterpart positions with a
  /// non-empty join key, widest signature first — the order the join
  /// engine prefers its probe partner in.
  std::vector<std::vector<size_t>> probe_preference;

  /// Structural cache key of the query this plan was compiled for (see
  /// `StructureOf`).
  std::string structure;

  size_t num_patterns() const { return order.size(); }

  /// Shared `VarId`s between execution positions `a` and `b`.
  const std::vector<query::VarId>& JoinKey(size_t a, size_t b) const {
    return join_keys[a][b];
  }

  /// The *structural* signature of a query: per pattern, each slot's
  /// variable id or constant kind, plus the identity of constant
  /// *predicates* (they dominate cardinality; subject/object constant
  /// identity is erased). Structurally identical queries — the same
  /// pattern shapes and predicates with different entity/literal
  /// constants, as produced by rule rewrites — share one plan: the
  /// join-key signatures are identical by construction and the cost
  /// order transfers.
  static std::string StructureOf(const query::Query& q,
                                 const query::VarTable& vars);
};

}  // namespace trinit::plan

#endif  // TRINIT_PLAN_JOIN_PLAN_H_
