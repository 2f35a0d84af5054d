#ifndef TRINIT_RDF_SCORE_ORDER_INDEX_H_
#define TRINIT_RDF_SCORE_ORDER_INDEX_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "obs/metrics.h"
#include "rdf/triple.h"
#include "util/owned_span.h"
#include "util/status.h"

namespace trinit::rdf {

/// How much re-verification snapshot-restored index structures get.
///
///  * kFull     every invariant later code relies on for memory safety
///              or correctness is re-checked in O(n) — the default, and
///              what copy loads and the default mapped mode use.
///              Corrupt input yields a typed error, never UB.
///  * kTrusted  only O(1) structural checks (sizes, counts) run; the
///              content is trusted to be exactly what the writer
///              produced. Reserved for the storage layer's explicit
///              opt-in "trusted mmap" mode, where touching every byte
///              at open would defeat the point of mapping (see
///              storage::SnapshotReader). Feeding it a file whose
///              *contents* were corrupted without breaking the section
///              framing is undefined behavior by contract.
enum class SnapshotValidation { kFull, kTrusted };

/// Score-ordered posting lists over a finished triple set — the "index
/// lists accessible in sorted order of scores" the paper's incremental
/// top-k processing (§4) assumes of its backend.
///
/// For every bound-slot shape of a triple pattern (none, S, P, O, SP,
/// SO, PO) the index keeps one permutation of the triple ids sorted by
/// the bound slots first and then by *descending emission weight*
/// (`count * confidence`, the numerator of the scoring model's emission
/// probability; ties by id for determinism). A pattern lookup is then a
/// binary search to a contiguous block whose triples stream out
/// best-first — consumers can stop early instead of fetching, scoring,
/// and sorting the whole match set.
///
/// Each permutation carries a prefix sum of triple counts, so the total
/// evidence mass of any block (`LmScorer::PatternMass`, the emission
/// denominator) is O(1) after the O(log n) block search instead of a
/// full span walk.
///
/// Shape permutations are built *lazily*: `Build` allocates only the
/// per-shape slots, and each permutation is sorted on its first lookup
/// behind a `std::once_flag` — a consumer that never queries a shape
/// never pays its sort or its ~12 B/triple. Concurrent first touches of
/// the same shape serialize on the flag; different shapes build in
/// parallel. All lookups after the once-body are wait-free reads, so
/// `const` query paths (`Engine::Execute`) stay thread-safe.
///
/// Fully-bound (s,p,o) lookups are not served here: a single triple
/// needs no ordering, and `TripleStore::ScoreOrdered` answers it from
/// the exact-match path.
class ScoreOrderIndex {
 public:
  /// One score-ordered posting list: ids in descending `WeightOf` order
  /// plus the block's total evidence mass (sum of counts).
  struct List {
    std::span<const TripleId> ids;
    uint64_t mass = 0;
  };

  /// One built shape permutation exported verbatim for binary snapshots
  /// (`storage::SnapshotWriter`): the shape's id order and prefix-mass
  /// sums exactly as the lazy build produced them, so a loaded index
  /// never re-sorts.
  /// Arrays arrive as span-or-vector: a varint section decodes into
  /// owned vectors, a raw one is viewed in place over the file bytes.
  struct ShapeSnapshot {
    uint32_t shape = 0;  ///< Shape enum value, 0..kNumShapes-1
    util::OwnedSpan<TripleId> ids;
    util::OwnedSpan<uint64_t> prefix_mass;  ///< size ids.size() + 1
  };

  ScoreOrderIndex() = default;

  /// Prepares lazy shape slots over `triples` (which must stay alive
  /// and unchanged for the lifetime of lookups; the index itself stores
  /// only ids and masses, so it moves freely with its owner — the
  /// per-shape state sits behind a stable-address allocation so
  /// `std::once_flag`s survive the move). No permutation is sorted
  /// here.
  static ScoreOrderIndex Build(std::span<const Triple> triples);

  /// Score-ordered ids of all triples matching the pattern
  /// (`kNullTerm` = wildcard). At most two slots may be bound. `triples`
  /// must be the array the index was built over. Builds the shape's
  /// permutation on first use (thread-safe).
  List Lookup(std::span<const Triple> triples, TermId s, TermId p,
              TermId o) const;

  /// The emission weight the lists are ordered by: the numerator of the
  /// scoring model's emission probability under production options.
  static double WeightOf(const Triple& t) {
    return static_cast<double>(t.count) * static_cast<double>(t.confidence);
  }

  /// Number of shape permutations materialized so far (laziness
  /// introspection for tests and benches; 0..7).
  size_t built_shapes() const;

  /// Zero-copy view of one built shape (snapshot writer): spans alias
  /// the index and stay valid for its lifetime.
  struct ShapeView {
    uint32_t shape = 0;
    std::span<const TripleId> ids;
    std::span<const uint64_t> prefix_mass;
  };

  /// Views of every shape built so far, cheap (no array copies).
  /// Unbuilt shapes are omitted — a snapshot preserves exactly the
  /// laziness state of the index at save time (a shape nobody queried
  /// is not persisted and stays lazy after load).
  std::vector<ShapeView> BuiltShapeViews() const;

  /// Installs a snapshot-restored shape permutation, marking the shape
  /// built so the first-touch sort is skipped. Intended for freshly
  /// `Build`-prepared indexes during snapshot load, before any lookup
  /// touches the shape. Every invariant `Lookup`/`Range` rely on is
  /// re-verified in O(n) against `triples` (the array the index was
  /// built over): ids a permutation, (key, weight desc, id) order, and
  /// prefix masses equal to the running count sums — so a corrupt
  /// snapshot yields InvalidArgument, never wrong answers. Under
  /// SnapshotValidation::kTrusted only the O(1) size checks run.
  /// FailedPrecondition when the shape was already built.
  Status RestoreShape(ShapeSnapshot snapshot, std::span<const Triple> triples,
                      SnapshotValidation validation = SnapshotValidation::kFull);

  /// Private (per-process) bytes held by materialized shapes — 0 when
  /// every built shape views snapshot file bytes.
  size_t resident_bytes() const;

  /// Observes each first-touch sort (its latency on `sort_ms`, a count
  /// on `builds`). Snapshot-restored shapes never enter the once-body,
  /// so restores are deliberately *not* counted as builds. Must be
  /// called before the index is shared across threads — the engine
  /// binds under exclusive ownership (construction, ExtendKg).
  void BindMetrics(obs::Histogram sort_ms, obs::Counter builds) {
    sort_ms_ = sort_ms;
    builds_ = builds;
  }

 private:
  enum Shape { kAll, kS, kP, kO, kSP, kSO, kPO, kNumShapes };

  struct Key {
    TermId a = 0, b = 0;
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  /// Bound-slot key of `t` under `shape`; single-slot shapes use b = 0.
  static Key KeyFor(Shape shape, const Triple& t);

  /// One lazily-built shape permutation. `built` is the publication
  /// flag: set (release) at the end of the once-body, checked (acquire)
  /// by `built_shapes`; readers inside `Lookup` are ordered by
  /// `call_once` itself. This publication protocol is outside what
  /// Clang TSA can annotate (no capability is ever held after the
  /// build); it is documented in docs/CONCURRENCY.md and exhausted by
  /// ContendedStressTest.ConcurrentLazyShapeFirstTouch under
  /// `ci.sh --tsan`. `ids`/`prefix_mass` are written only inside the
  /// once-body and immutable once `built` is observed true.
  struct ShapeIndex {
    std::once_flag once;
    std::atomic<bool> built{false};
    util::OwnedSpan<TripleId> ids;
    // prefix_mass[i] = sum of counts over ids[0..i).
    util::OwnedSpan<uint64_t> prefix_mass;
  };

  /// The shape's permutation, sorted on first call.
  ShapeIndex& Shaped(std::span<const Triple> triples, Shape shape) const;

  List Range(std::span<const Triple> triples, Shape shape, TermId first,
             TermId second) const;

  // Heap-allocated so once_flags keep a stable address across moves of
  // the owning TripleStore; null for a default-constructed index.
  std::unique_ptr<std::array<ShapeIndex, kNumShapes>> shapes_;
  // Registry mirrors; written only by BindMetrics (pre-share).
  obs::Histogram sort_ms_;
  obs::Counter builds_;
};

}  // namespace trinit::rdf

#endif  // TRINIT_RDF_SCORE_ORDER_INDEX_H_
