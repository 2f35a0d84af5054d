#ifndef TRINIT_TOPK_PATTERN_STREAM_H_
#define TRINIT_TOPK_PATTERN_STREAM_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "query/binding.h"
#include "query/query.h"
#include "scoring/lm_scorer.h"
#include "topk/answer.h"
#include "xkg/xkg.h"

namespace trinit::topk {

/// A stream of scored variable bindings in descending score order — the
/// "index list accessible in sorted order of scores" that the paper's
/// incremental top-k algorithm (§4, after [11]) consumes.
///
/// Laziness contract: a stream does only the work its consumer pays
/// for. `Peek()`/`Pop()` may decode and score index entries; calling
/// `BestPossible()` must stay cheap (no decoding) so rank-join
/// threshold checks are free. `DecodeStats()` reports how much of the
/// underlying index lists was actually touched.
class BindingStream {
 public:
  struct Item {
    query::Binding binding;  ///< over the consumer's VarTable
    double log_score = 0.0;
    DerivationStep step;
  };

  /// Laziness accounting over the stream's underlying index lists.
  struct Stats {
    size_t items_decoded = 0;  ///< index entries fetched and scored
    size_t items_skipped = 0;  ///< entries in known lists never decoded

    Stats& operator+=(const Stats& other) {
      items_decoded += other.items_decoded;
      items_skipped += other.items_skipped;
      return *this;
    }
  };

  virtual ~BindingStream() = default;

  /// Current best remaining item, or nullptr when exhausted. The
  /// returned pointer stays valid until the next Pop().
  virtual const Item* Peek() = 0;

  /// Advances past the current item. Requires Peek() != nullptr.
  virtual void Pop() = 0;

  /// Upper bound on the score of anything this stream may still emit;
  /// must be non-increasing over time. -inf (kExhausted) when done.
  virtual double BestPossible() = 0;

  /// Work accounting; streams without index lists report zeros.
  virtual Stats DecodeStats() const { return {}; }

  static constexpr double kExhausted = -1e18;
};

/// Lazy max-heap over handles whose keys only *descend* over time.
///
/// Entries are keyed by the value observed at push time; a stale top is
/// detected by re-reading the handle's current key and sifted back
/// down, so callers never pay a full rescan. Ties break by insertion
/// order (earliest wins), keeping selection deterministic and identical
/// to a first-maximum linear scan. This is the machinery behind
/// `StreamHeap` (handles = streams, key = head score) and the
/// `LeafStream` cursor selection (handles = cursor indices, key =
/// undecoded-remainder bound).
template <typename Handle>
class LazyMaxHeap {
 public:
  void Push(Handle handle, double key) {
    heap_.push_back({key, next_order_++, handle});
    std::push_heap(heap_.begin(), heap_.end(), Less);
  }

  /// The handle with the highest current key, or nullopt when empty.
  /// `current_key(handle)` must return the handle's present key — at or
  /// below the key it was pushed with — or nullopt to drop the handle
  /// for good (exhausted). The returned handle's entry stays in the
  /// heap; a later key decrease is picked up on the next call.
  template <typename KeyFn>
  std::optional<Handle> Best(KeyFn&& current_key) {
    while (!heap_.empty()) {
      Entry top = heap_.front();
      std::optional<double> key = current_key(top.handle);
      if (!key.has_value()) {
        std::pop_heap(heap_.begin(), heap_.end(), Less);
        heap_.pop_back();
        continue;
      }
      if (*key >= top.key) return top.handle;
      // The key descended since this entry was keyed: re-key and sift,
      // then re-check the new top.
      std::pop_heap(heap_.begin(), heap_.end(), Less);
      heap_.back().key = *key;
      std::push_heap(heap_.begin(), heap_.end(), Less);
    }
    return std::nullopt;
  }

  bool empty() const { return heap_.empty(); }

 private:
  struct Entry {
    double key;
    uint64_t order;  // insertion order; earlier wins ties (determinism)
    Handle handle;
  };
  static bool Less(const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.order > b.order;
  }
  std::vector<Entry> heap_;  // std::push_heap max-heap on key
  uint64_t next_order_ = 0;
};

/// Lazy max-heap over the current head items of a set of streams.
///
/// Entries are keyed by the head score observed at push time; since
/// stream heads only descend, a stale top is detected by re-peeking and
/// pushed back down. This replaces the O(n) per-`Peek` linear rescans
/// of `MergeStream`/`RelaxedStream` with O(log n) heap maintenance.
class StreamHeap {
 public:
  /// Registers a stream; peeks it once (exhausted streams are dropped).
  void Add(BindingStream* stream);

  /// The stream with the best current head item, or nullptr when every
  /// registered stream is exhausted. The winner's `Peek()` is hot.
  BindingStream* Best();

  bool empty() const { return heap_.empty(); }

 private:
  LazyMaxHeap<BindingStream*> heap_;
};

/// Evaluates one concrete triple pattern against the XKG and serves its
/// matches best-first, *incrementally*: each (soft-match) slot
/// combination is a cursor over a score-ordered posting list
/// (`TripleStore::ScoreOrdered`), entries are decoded in small chunks,
/// and an item is emitted only once nothing still undecoded can outrank
/// it (`LmScorer::UpperBoundForList` bounds every cursor's remainder).
/// Deadlines and rank-join thresholds therefore save real work: what
/// the consumer never pulls is never fetched or scored.
///
/// Decoding yields compact `Row`s (score, decode order, triple, cursor);
/// repeated variables are checked on the triple itself. The full `Item`
/// (binding, derivation step, soft matches) is built only when a row is
/// emitted, so rows decoded but never pulled cost a heap slot, not an
/// Item.
///
/// Token constants soft-match interned token phrases through the phrase
/// index (threshold from ScorerOptions); each substitution attenuates
/// the score by log(similarity) and is recorded as a SoftMatch.
/// Unresolved resource/literal constants match nothing (relaxation rules
/// are the rescue path).
class LeafStream : public BindingStream {
 public:
  /// One decoded index entry, everything its Item is built from.
  struct Row {
    double score = 0.0;
    uint64_t seq = 0;  ///< decode order; earlier wins ties (determinism)
    rdf::TripleId triple = 0;
    uint32_t cursor = 0;  ///< index of the cursor that decoded it
  };

  /// `pattern_index` tags emitted derivation steps; `chain_rules` /
  /// `chain_weight_log` describe the relaxation chain that produced this
  /// form of the pattern (empty/0 for the original form).
  LeafStream(const xkg::Xkg& xkg, const scoring::LmScorer& scorer,
             const query::VarTable& vars, const query::TriplePattern& pattern,
             size_t pattern_index,
             std::vector<const relax::Rule*> chain_rules = {},
             double chain_weight_log = 0.0);

  const Item* Peek() override;
  void Pop() override;
  double BestPossible() override;
  Stats DecodeStats() const override;

  /// Decodes every entry and returns the rows in exactly the order
  /// Peek()/Pop() would emit them: (score desc, decode order asc).
  /// Chunks are picked by the same bound-keyed cursor selection, so the
  /// decode order and DecodeStats() match a full Peek()/Pop() drain.
  /// Call on a fresh stream; it is exhausted afterwards.
  std::vector<Row> DrainRows();

  /// Soft-match records shared by every row of `row`'s cursor.
  const std::vector<SoftMatch>& soft_matches(const Row& row) const {
    return cursors_[row.cursor].soft_matches;
  }

  /// Total number of items this stream will ever emit. Forces a full
  /// decode — test/bench introspection only; defeats the laziness.
  size_t size();

 private:
  /// One slot-alternative combination: a score-ordered posting list
  /// with its attenuation and soft-match records.
  struct Cursor {
    std::span<const rdf::TripleId> ids;  // descending emission weight
    size_t pos = 0;                      // next undecoded entry
    uint64_t mass = 0;                   // emission denominator
    double alt_log = 0.0;  // soft-match + chain attenuation (<= 0)
    double bound = 0.0;    // upper bound on any undecoded item
    std::vector<SoftMatch> soft_matches;
  };

  // Max-heap order over decoded-but-unemitted rows.
  static bool RowLess(const Row& a, const Row& b);

  /// Decodes the next chunk of cursor `ci`, appending the rows that
  /// survive the repeated-variable check to `out` in decode order.
  void DecodeChunk(size_t ci, std::vector<Row>& out);
  /// DecodeChunk into the pending-row heap.
  void DecodeIntoHeap(size_t ci);
  /// Decodes until the heap's best is safe to emit (no cursor bound
  /// above it), then builds its Item into `current_`.
  void Advance();
  /// Index of the cursor with the highest undecoded-remainder bound via
  /// the lazy heap (cursor bounds only descend), or nullopt when every
  /// cursor is drained.
  std::optional<size_t> BestCursor();
  Item ItemFor(const Row& row) const;

  const xkg::Xkg& xkg_;
  const scoring::LmScorer& scorer_;
  std::vector<Cursor> cursors_;
  LazyMaxHeap<size_t> cursor_heap_;  // bound-keyed cursor selection
  std::vector<Row> heap_;  // decoded, unemitted; std::push_heap max-heap
  std::optional<Item> current_;
  size_t decoded_ = 0;
  size_t total_entries_ = 0;
  size_t popped_ = 0;
  uint64_t next_seq_ = 0;
  // BestPossible() cache: the bound only moves when something decodes
  // or emits, but the rank-join threshold reads it on every pull.
  double cached_bound_ = 0.0;
  bool bound_dirty_ = true;

  // Shared item metadata.
  size_t pattern_index_;
  std::string matched_form_;
  std::vector<const relax::Rule*> chain_rules_;
  std::optional<query::VarId> sv_, pv_, ov_;
  // Repeated variables: slot pairs whose terms must be equal.
  bool same_sp_ = false, same_so_ = false, same_po_ = false;
  size_t num_vars_ = 0;
};

/// Merges several already-constructed streams, best-first, through a
/// lazy max-heap keyed by head scores. Used by tests and by the
/// exhaustive-mode machinery.
class MergeStream : public BindingStream {
 public:
  explicit MergeStream(std::vector<std::unique_ptr<BindingStream>> inputs);

  const Item* Peek() override;
  void Pop() override;
  double BestPossible() override;
  Stats DecodeStats() const override;

 private:
  BindingStream* Best();
  std::vector<std::unique_ptr<BindingStream>> inputs_;
  StreamHeap heap_;
  bool heap_primed_ = false;
};

}  // namespace trinit::topk

#endif  // TRINIT_TOPK_PATTERN_STREAM_H_
