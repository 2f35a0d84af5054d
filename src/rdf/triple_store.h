#ifndef TRINIT_RDF_TRIPLE_STORE_H_
#define TRINIT_RDF_TRIPLE_STORE_H_

#include <span>
#include <vector>

#include "rdf/score_order_index.h"
#include "rdf/triple.h"
#include "util/owned_span.h"
#include "util/result.h"
#include "util/status.h"

namespace trinit::rdf {

/// Immutable triple index supporting every triple-pattern shape with a
/// contiguous sorted range scan.
///
/// The store keeps triples deduplicated by (s,p,o) — duplicate inserts
/// aggregate `count` (sum) and `confidence` (max), and keep the smallest
/// `source` id so curated-KG provenance (source 0) wins over extraction
/// provenance. Six permutation index arrays (SPO is the canonical triple
/// order itself) make each of the 8 bound/unbound slot combinations a
/// binary-searchable prefix range:
///
///   (?,?,?) -> SPO (full scan)     (s,?,?) -> SPO
///   (?,p,?) -> PSO                 (?,?,o) -> OSP
///   (s,p,?) -> SPO                 (s,?,o) -> SOP
///   (?,p,o) -> POS                 (s,p,o) -> SPO
///
/// This mirrors the "index lists accessible in sorted order" requirement
/// of the paper's top-k processing (§4); the ElasticSearch backend of the
/// original demo provided the same access path. On top of the six
/// SPO-ordered permutations, `ScoreOrdered()` serves every non-exact
/// pattern shape in descending emission-weight order from a
/// `ScoreOrderIndex` whose per-shape permutations are sorted lazily on
/// first lookup (thread-safe; a workload that never queries a shape
/// never pays for it).
///
/// Threading: everything here is immutable after Build() except the
/// lazy score-shape materialization, which publishes through
/// `ScoreOrderIndex::ShapeIndex`'s once_flag/atomic protocol (see
/// docs/CONCURRENCY.md — concurrent first touches are exercised under
/// TSan by the contended stress suite). Any number of threads may read
/// one store with no external lock.
///
/// Construction goes through `TripleStoreBuilder` (RocksDB-style builder
/// idiom: mutation before Build, immutability after).
class TripleStore {
 public:
  TripleStore() = default;
  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;
  TripleStore(TripleStore&&) = default;
  TripleStore& operator=(TripleStore&&) = default;

  /// Number of distinct (s,p,o) triples.
  size_t size() const { return triples_.size(); }
  bool empty() const { return triples_.empty(); }

  /// The triple with the given dense id (0 <= id < size()). Triples are
  /// stored in ascending SPO order, so ids are themselves SPO-sorted.
  const Triple& triple(TripleId id) const { return triples_[id]; }

  /// All triples in SPO order.
  std::span<const Triple> triples() const { return triples_.span(); }

  /// Ids of all triples matching the pattern; `kNullTerm` in a slot means
  /// wildcard. The returned span aliases an internal permutation array
  /// and is valid for the store's lifetime. Result ids are in the order
  /// of the permutation used (deterministic for a given pattern shape).
  std::span<const TripleId> Match(TermId s, TermId p, TermId o) const;

  /// Number of triples matching the pattern (the selectivity / idf-like
  /// statistic of the scoring model).
  size_t MatchCount(TermId s, TermId p, TermId o) const {
    return Match(s, p, o).size();
  }

  /// Ids of all triples matching the pattern in *descending emission
  /// weight* order (`ScoreOrderIndex::WeightOf`: count × confidence),
  /// with the block's total evidence mass. This is the score-ordered
  /// access path of the paper's top-k processing (§4): consumers stream
  /// matches best-first and stop early; the mass (the scoring model's
  /// emission denominator) comes from a prefix sum instead of a span
  /// walk. The span aliases internal storage (store lifetime).
  ScoreOrderIndex::List ScoreOrdered(TermId s, TermId p, TermId o) const;

  /// Dense id of the exact triple, or kInvalidTriple.
  TripleId Find(TermId s, TermId p, TermId o) const;

  bool Contains(TermId s, TermId p, TermId o) const {
    return Find(s, p, o) != kInvalidTriple;
  }

  /// Sum of `count` over all triples (total evidence mass, used as the
  /// collection length of the scoring language model).
  uint64_t total_count() const { return total_count_; }

  /// Largest per-triple `count` (used for cheap upper bounds on emission
  /// probabilities: p(t|q) <= max_count / |match span|).
  uint32_t max_count() const { return max_count_; }

  /// Score-ordered shape permutations materialized so far (laziness
  /// introspection for tests and benches; 0..7).
  size_t score_shapes_built() const { return score_index_.built_shapes(); }

  /// Forwards first-touch sort instrumentation to the score index (see
  /// `ScoreOrderIndex::BindMetrics`; same pre-share contract).
  void BindScoreMetrics(obs::Histogram sort_ms, obs::Counter builds) {
    score_index_.BindMetrics(sort_ms, builds);
  }

  /// Number of non-SPO permutation index arrays (the canonical SPO
  /// order is the triple array itself).
  static constexpr size_t kNumIndexPermutations = 5;

  /// Read-only view of permutation array `i` (0 ..
  /// kNumIndexPermutations-1), in the writer's fixed order. Zero-copy:
  /// the span aliases the store (snapshot writer access path).
  std::span<const TripleId> IndexPermutation(size_t i) const;

  /// Zero-copy views of every score-ordered shape built so far (see
  /// `ScoreOrderIndex::BuiltShapeViews`).
  std::vector<ScoreOrderIndex::ShapeView> BuiltScoreShapes() const {
    return score_index_.BuiltShapeViews();
  }

  /// The store's decoded index state on the snapshot *load* path: the
  /// five permutation arrays plus every persisted score-ordered shape.
  /// Together with the triples this is everything `FromSnapshot` needs
  /// to reassemble the store without a single sort.
  /// Arrays arrive as span-or-vector: a varint section decodes into
  /// owned vectors, a raw one is viewed in place over the file bytes.
  struct IndexSnapshot {
    std::vector<util::OwnedSpan<TripleId>> perms;  ///< kNumIndexPermutations
    std::vector<ScoreOrderIndex::ShapeSnapshot> score_shapes;
  };

  /// Reassembles a store from snapshot parts without re-sorting
  /// anything: `triples` must be strictly ascending SPO (deduplicated),
  /// and `indexes.perms` must be the arrays the snapshot writer
  /// serialized from `IndexPermutation(0..4)`, in that order. Every
  /// invariant that later code relies on for memory safety or
  /// correctness is re-verified in O(n) — triple order, each
  /// permutation a bounds-checked true permutation in key order,
  /// score-shape order and mass consistency — so a corrupt snapshot
  /// that slipped past its checksums still yields a typed error, never
  /// UB or silently wrong answers. Under SnapshotValidation::kTrusted
  /// (the storage layer's explicit trusted-mmap opt-in) only the O(1)
  /// structural checks run.
  static Result<TripleStore> FromSnapshot(
      util::OwnedSpan<Triple> triples, IndexSnapshot indexes,
      SnapshotValidation validation = SnapshotValidation::kFull);

  /// Private (per-process) bytes held by the store's arrays: owned
  /// triple/permutation/shape buffers plus the identity array. Views
  /// over snapshot file bytes contribute 0 (the storage layer accounts
  /// for those bytes itself) — the basis of the load report's resident
  /// estimate.
  size_t resident_bytes() const;

 private:
  friend class TripleStoreBuilder;

  enum Perm { kSop = 0, kPso = 1, kPos = 2, kOsp = 3, kOps = 4, kNumPerms };

  // Key of `t` under the permutation: the three slots in scan order.
  struct Key {
    TermId a, b, c;
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  Key KeyFor(Perm perm, const Triple& t) const;

  std::span<const TripleId> PrefixRange(Perm perm, TermId first,
                                        TermId second) const;

  util::OwnedSpan<Triple> triples_;  // ascending SPO
  util::OwnedSpan<TripleId> perms_[kNumPerms];
  std::vector<TripleId> identity_;  // 0..n-1 (SPO view for uniform spans)
  ScoreOrderIndex score_index_;     // score-ordered shape permutations
  uint64_t total_count_ = 0;
  uint32_t max_count_ = 0;
};

/// Accumulates triples and produces an immutable `TripleStore`.
class TripleStoreBuilder {
 public:
  TripleStoreBuilder() = default;

  /// Adds one triple; null slots are rejected at Build time.
  void Add(const Triple& t) { pending_.push_back(t); }
  void Add(TermId s, TermId p, TermId o, float confidence = 1.0f,
           uint32_t count = 1, SourceId source = kKgSource) {
    pending_.push_back(Triple{s, p, o, confidence, count, source});
  }

  /// Number of raw (pre-dedup) pending triples.
  size_t pending_size() const { return pending_.size(); }

  /// Sorts, deduplicates, aggregates payloads, and builds all permutation
  /// indexes. Fails with InvalidArgument if any pending triple has a null
  /// slot. The builder is left empty.
  Result<TripleStore> Build();

 private:
  std::vector<Triple> pending_;
};

}  // namespace trinit::rdf

#endif  // TRINIT_RDF_TRIPLE_STORE_H_
