#include "topk/pattern_stream.h"

#include <algorithm>
#include <array>
#include <unordered_set>

#include "rdf/score_order_index.h"
#include "util/hash.h"
#include "util/logging.h"

namespace trinit::topk {
namespace {

// Entries decoded from a cursor's posting list per refill round. Small
// enough that a top-1 consumer touches a handful of entries; large
// enough to amortize the heap pushes when a list is drained.
constexpr size_t kDecodeChunk = 16;

// One way to make a pattern slot concrete: a bound term id (or wildcard
// kNullTerm for variables) plus the log-similarity cost of getting there
// and an optional soft-match record.
struct SlotAlternative {
  rdf::TermId id = rdf::kNullTerm;
  double log_sim = 0.0;
  bool has_soft_match = false;
  SoftMatch soft_match;
};

std::vector<SlotAlternative> ExpandSlot(const xkg::Xkg& xkg,
                                        const scoring::LmScorer& scorer,
                                        const query::Term& term) {
  using Kind = query::Term::Kind;
  std::vector<SlotAlternative> out;
  switch (term.kind) {
    case Kind::kVariable:
      out.push_back({rdf::kNullTerm, 0.0, false, {}});
      break;
    case Kind::kResource:
    case Kind::kLiteral: {
      // Constants in rule-produced patterns arrive unresolved (rules are
      // dictionary-agnostic); resolve here. Still-missing resources match
      // nothing — relaxation is their rescue path.
      rdf::TermId id = term.id;
      if (id == rdf::kNullTerm) {
        id = xkg.dict().Find(term.kind == Kind::kResource
                                 ? rdf::TermKind::kResource
                                 : rdf::TermKind::kLiteral,
                             term.text);
      }
      if (id != rdf::kNullTerm) {
        out.push_back({id, 0.0, false, {}});
      }
      break;
    }
    case Kind::kToken: {
      // Exact phrase term (if interned) plus soft matches over the
      // phrase index.
      double threshold = scorer.options().token_match_threshold;
      for (const auto& cand :
           xkg.phrase_index().FindSimilar(term.text, threshold)) {
        SlotAlternative alt;
        alt.id = cand.term;
        if (cand.term == term.id) {
          alt.log_sim = 0.0;  // exact vocabulary hit, no attenuation
        } else {
          alt.log_sim = scoring::LmScorer::LogWeight(cand.similarity);
          alt.has_soft_match = true;
          alt.soft_match = SoftMatch{
              term.text, std::string(xkg.dict().label(cand.term)),
              cand.similarity};
        }
        out.push_back(std::move(alt));
      }
      break;
    }
  }
  return out;
}

}  // namespace

// Max-heap ordering: higher score wins, earlier decode order breaks
// ties (keeps the emission sequence deterministic).
bool LeafStream::RowLess(const Row& a, const Row& b) {
  if (a.score != b.score) return a.score < b.score;
  return a.seq > b.seq;
}

LeafStream::LeafStream(const xkg::Xkg& xkg, const scoring::LmScorer& scorer,
                       const query::VarTable& vars,
                       const query::TriplePattern& pattern,
                       size_t pattern_index,
                       std::vector<const relax::Rule*> chain_rules,
                       double chain_weight_log)
    : xkg_(xkg),
      scorer_(scorer),
      pattern_index_(pattern_index),
      matched_form_(pattern.ToString()),
      chain_rules_(std::move(chain_rules)),
      num_vars_(vars.size()) {
  std::vector<SlotAlternative> s_alts = ExpandSlot(xkg, scorer, pattern.s);
  std::vector<SlotAlternative> p_alts = ExpandSlot(xkg, scorer, pattern.p);
  std::vector<SlotAlternative> o_alts = ExpandSlot(xkg, scorer, pattern.o);

  // Variable ids for the slots that bind.
  auto var_id = [&vars](const query::Term& t) -> std::optional<query::VarId> {
    if (!t.is_variable()) return std::nullopt;
    return vars.Find(t.text);
  };
  sv_ = var_id(pattern.s);
  pv_ = var_id(pattern.p);
  ov_ = var_id(pattern.o);
  same_sp_ = sv_.has_value() && sv_ == pv_;
  same_so_ = sv_.has_value() && sv_ == ov_;
  same_po_ = pv_.has_value() && pv_ == ov_;

  // One cursor per distinct slot-alternative combination with matches.
  // Nothing is decoded here: a cursor is a span into the score-ordered
  // posting list plus an upper bound from its first (= heaviest) entry.
  struct ComboHash {
    size_t operator()(const std::array<rdf::TermId, 3>& c) const {
      return HashCombine(c[0], HashCombine(c[1], c[2]));
    }
  };
  std::unordered_set<std::array<rdf::TermId, 3>, ComboHash> combos_seen;
  for (const SlotAlternative& sa : s_alts) {
    for (const SlotAlternative& pa : p_alts) {
      for (const SlotAlternative& oa : o_alts) {
        if (!combos_seen.insert({sa.id, pa.id, oa.id}).second) continue;

        rdf::ScoreOrderIndex::List list =
            xkg.store().ScoreOrdered(sa.id, pa.id, oa.id);
        if (list.ids.empty()) continue;

        Cursor cursor;
        cursor.ids = list.ids;
        cursor.mass = list.mass;
        cursor.alt_log =
            sa.log_sim + pa.log_sim + oa.log_sim + chain_weight_log;
        for (const SlotAlternative* alt : {&sa, &pa, &oa}) {
          if (alt->has_soft_match) {
            cursor.soft_matches.push_back(alt->soft_match);
          }
        }
        cursor.bound =
            scorer.UpperBoundForList(
                rdf::ScoreOrderIndex::WeightOf(
                    xkg.store().triple(cursor.ids.front())),
                cursor.mass) +
            cursor.alt_log;
        total_entries_ += cursor.ids.size();
        cursors_.push_back(std::move(cursor));
      }
    }
  }
  // Bound-keyed cursor selection: cursor bounds only descend (lists are
  // sorted by weight), so the lazy heap's stale-entry re-keying applies.
  // Pushing in index order makes heap ties resolve exactly like the
  // first-maximum linear scan they replace.
  for (size_t ci = 0; ci < cursors_.size(); ++ci) {
    cursor_heap_.Push(ci, cursors_[ci].bound);
  }
}

std::optional<size_t> LeafStream::BestCursor() {
  return cursor_heap_.Best([this](size_t ci) -> std::optional<double> {
    const Cursor& c = cursors_[ci];
    if (c.pos >= c.ids.size()) return std::nullopt;
    return c.bound;
  });
}

void LeafStream::DecodeChunk(size_t ci, std::vector<Row>& out) {
  Cursor& cursor = cursors_[ci];
  size_t limit = std::min(cursor.pos + kDecodeChunk, cursor.ids.size());
  for (; cursor.pos < limit; ++cursor.pos) {
    rdf::TripleId id = cursor.ids[cursor.pos];
    const rdf::Triple& t = xkg_.store().triple(id);
    ++decoded_;
    // A repeated variable with conflicting terms matches nothing.
    if ((same_sp_ && t.s != t.p) || (same_so_ && t.s != t.o) ||
        (same_po_ && t.p != t.o)) {
      continue;
    }
    out.push_back({scorer_.ScoreTriple(t, cursor.mass) + cursor.alt_log,
                   next_seq_++, id, static_cast<uint32_t>(ci)});
  }
  bound_dirty_ = true;
  // Undecoded remainder bound, from the next (= heaviest remaining)
  // entry; monotone because the list descends by weight.
  cursor.bound =
      cursor.pos < cursor.ids.size()
          ? scorer_.UpperBoundForList(
                rdf::ScoreOrderIndex::WeightOf(
                    xkg_.store().triple(cursor.ids[cursor.pos])),
                cursor.mass) +
                cursor.alt_log
          : kExhausted;
}

void LeafStream::DecodeIntoHeap(size_t ci) {
  size_t heap_size = heap_.size();
  DecodeChunk(ci, heap_);
  while (heap_size < heap_.size()) {
    std::push_heap(heap_.begin(), heap_.begin() + ++heap_size, RowLess);
  }
}

BindingStream::Item LeafStream::ItemFor(const Row& row) const {
  const rdf::Triple& t = xkg_.store().triple(row.triple);
  Item item;
  item.binding = query::Binding(num_vars_);
  // Repeated variables were checked at decode: these cannot conflict.
  if (sv_) item.binding.Bind(*sv_, t.s);
  if (pv_) item.binding.Bind(*pv_, t.p);
  if (ov_) item.binding.Bind(*ov_, t.o);
  item.log_score = row.score;
  item.step.pattern_index = pattern_index_;
  item.step.matched_form = matched_form_;
  item.step.rules = chain_rules_;
  item.step.triples = {row.triple};
  item.step.soft_matches = cursors_[row.cursor].soft_matches;
  item.step.log_score = row.score;
  return item;
}

void LeafStream::Advance() {
  while (true) {
    std::optional<size_t> best = BestCursor();
    double frontier = best.has_value() ? cursors_[*best].bound : kExhausted;
    if (!heap_.empty() && heap_.front().score >= frontier) {
      // Nothing undecoded can outrank the heap top: emit it.
      std::pop_heap(heap_.begin(), heap_.end(), RowLess);
      current_ = ItemFor(heap_.back());
      heap_.pop_back();
      return;
    }
    if (!best.has_value()) {
      current_.reset();  // heap empty and every cursor drained
      return;
    }
    DecodeIntoHeap(*best);
  }
}

std::vector<LeafStream::Row> LeafStream::DrainRows() {
  TRINIT_CHECK(heap_.empty() && !current_.has_value() && popped_ == 0);
  std::vector<Row> rows;
  while (std::optional<size_t> best = BestCursor()) DecodeChunk(*best, rows);
  // Rows are in decode order, so a stable sort by score is exactly the
  // heap's (score desc, seq asc) emission order.
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.score > b.score;
  });
  popped_ = rows.size();
  return rows;
}

const BindingStream::Item* LeafStream::Peek() {
  if (!current_.has_value()) Advance();
  return current_.has_value() ? &*current_ : nullptr;
}

void LeafStream::Pop() {
  if (!current_.has_value()) Advance();
  TRINIT_CHECK(current_.has_value());
  current_.reset();
  ++popped_;
  bound_dirty_ = true;
}

double LeafStream::BestPossible() {
  if (current_.has_value()) return current_->log_score;
  if (!bound_dirty_) return cached_bound_;
  double bound = heap_.empty() ? kExhausted : heap_.front().score;
  std::optional<size_t> best = BestCursor();
  if (best.has_value()) bound = std::max(bound, cursors_[*best].bound);
  cached_bound_ = bound;
  bound_dirty_ = false;
  return bound;
}

BindingStream::Stats LeafStream::DecodeStats() const {
  return {decoded_, total_entries_ - decoded_};
}

size_t LeafStream::size() {
  // Force-decode everything; what survives binding is what will emit.
  for (size_t ci = 0; ci < cursors_.size(); ++ci) {
    while (cursors_[ci].pos < cursors_[ci].ids.size()) DecodeIntoHeap(ci);
  }
  return popped_ + heap_.size() + (current_.has_value() ? 1 : 0);
}

void StreamHeap::Add(BindingStream* stream) {
  const BindingStream::Item* item = stream->Peek();
  if (item == nullptr) return;
  heap_.Push(stream, item->log_score);
}

BindingStream* StreamHeap::Best() {
  std::optional<BindingStream*> best =
      heap_.Best([](BindingStream* stream) -> std::optional<double> {
        const BindingStream::Item* item = stream->Peek();
        if (item == nullptr) return std::nullopt;
        return item->log_score;
      });
  return best.value_or(nullptr);
}

MergeStream::MergeStream(std::vector<std::unique_ptr<BindingStream>> inputs)
    : inputs_(std::move(inputs)) {}

BindingStream* MergeStream::Best() {
  if (!heap_primed_) {
    for (const auto& in : inputs_) heap_.Add(in.get());
    heap_primed_ = true;
  }
  return heap_.Best();
}

const BindingStream::Item* MergeStream::Peek() {
  BindingStream* best = Best();
  return best == nullptr ? nullptr : best->Peek();
}

void MergeStream::Pop() {
  BindingStream* best = Best();
  TRINIT_CHECK(best != nullptr);
  best->Pop();
}

double MergeStream::BestPossible() {
  double bound = kExhausted;
  for (const auto& in : inputs_) {
    bound = std::max(bound, in->BestPossible());
  }
  return bound;
}

BindingStream::Stats MergeStream::DecodeStats() const {
  Stats stats;
  for (const auto& in : inputs_) stats += in->DecodeStats();
  return stats;
}

}  // namespace trinit::topk
