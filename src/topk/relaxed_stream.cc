#include "topk/relaxed_stream.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <string>

#include "rdf/score_order_index.h"
#include "scoring/lm_scorer.h"
#include "util/hash.h"
#include "util/logging.h"

namespace trinit::topk {
namespace {

// Local variable table for a pattern group: the global variables as a
// prefix, then any fresh variables the group introduces.
query::VarTable LocalVarTable(const query::VarTable& global_vars,
                              const std::vector<query::TriplePattern>& ps) {
  std::vector<std::string> names = global_vars.names();
  for (const query::TriplePattern& p : ps) {
    for (const std::string& v : p.Variables()) {
      if (std::find(names.begin(), names.end(), v) == names.end()) {
        names.push_back(v);
      }
    }
  }
  return query::VarTable(std::move(names));
}

// Resolves the constant slots of `pattern` for cheap index-metadata
// bounding. Returns false when a token constant makes the pattern not
// cheaply boundable; `dead` is set when a resource/literal constant
// cannot resolve at all (the pattern can never match).
bool ResolveForBound(const xkg::Xkg& xkg, const query::TriplePattern& pattern,
                     rdf::TermId ids[3], bool* dead) {
  *dead = false;
  const query::Term* slots[3] = {&pattern.s, &pattern.p, &pattern.o};
  for (int i = 0; i < 3; ++i) {
    const query::Term& t = *slots[i];
    if (t.is_variable()) {
      ids[i] = rdf::kNullTerm;
      continue;
    }
    if (t.kind == query::Term::Kind::kToken) return false;
    ids[i] = t.id != rdf::kNullTerm
                 ? t.id
                 : xkg.dict().Find(t.kind == query::Term::Kind::kResource
                                       ? rdf::TermKind::kResource
                                       : rdf::TermKind::kLiteral,
                                   t.text);
    if (ids[i] == rdf::kNullTerm) {
      *dead = true;
      return false;
    }
  }
  return true;
}

// Row indices of one group member, bucketed by the hash of the row's
// values on the variables that earlier members bind (open addressing
// over the 64-bit hash). Buckets list rows in ascending, i.e. emission,
// order. Equal hashes need not mean equal values: callers re-check.
class SharedValueIndex {
 public:
  // `values` holds `stride` terms per row; `cols` are the shared ones.
  SharedValueIndex(std::span<const rdf::TermId> values, size_t stride,
                   const std::vector<size_t>& cols) {
    if (cols.empty()) return;
    const size_t num_rows = values.size() / stride;
    size_t capacity = 2;
    while (capacity < 2 * num_rows) capacity <<= 1;
    slots_.resize(capacity);
    mask_ = capacity - 1;
    // Count rows per key, then lay buckets out back to back and fill
    // them in row order.
    std::vector<uint32_t> slot_of(num_rows);
    for (size_t r = 0; r < num_rows; ++r) {
      uint64_t key = 0;
      for (size_t c : cols) key = HashCombine(key, values[r * stride + c]);
      Slot& slot = slots_[SlotFor(key)];
      slot.key = key;
      ++slot.count;
      slot_of[r] = static_cast<uint32_t>(&slot - slots_.data());
    }
    uint32_t begin = 0;
    for (Slot& slot : slots_) {
      slot.begin = begin;
      begin += slot.count;
      slot.count = 0;
    }
    rows_.resize(num_rows);
    for (size_t r = 0; r < num_rows; ++r) {
      Slot& slot = slots_[slot_of[r]];
      rows_[slot.begin + slot.count++] = static_cast<uint32_t>(r);
    }
  }

  std::span<const uint32_t> Find(uint64_t key) const {
    if (slots_.empty()) return {};
    const Slot& slot = slots_[SlotFor(key)];
    return {rows_.data() + slot.begin, slot.count};
  }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t begin = 0;
    uint32_t count = 0;  // 0: empty slot
  };

  // The slot holding `key`, or the empty slot where it would go.
  size_t SlotFor(uint64_t key) const {
    size_t i = key & mask_;
    while (slots_[i].count != 0 && slots_[i].key != key) i = (i + 1) & mask_;
    return i;
  }

  std::vector<Slot> slots_;  // at most half full
  std::vector<uint32_t> rows_;
  size_t mask_ = 0;
};

}  // namespace

GroupStream::GroupStream(const xkg::Xkg& xkg,
                         const scoring::LmScorer& scorer,
                         const query::VarTable& global_vars,
                         const Alternative& alternative, size_t pattern_index)
    : num_global_vars_(global_vars.size()),
      pattern_index_(pattern_index),
      rules_(alternative.rules) {
  query::VarTable local = LocalVarTable(global_vars, alternative.patterns);
  double chain_log = scoring::LmScorer::LogWeight(alternative.weight);
  for (size_t i = 0; i < alternative.patterns.size(); ++i) {
    if (i > 0) matched_form_ += " ; ";
    matched_form_ += alternative.patterns[i].ToString();
  }

  // Drain each member pattern once (chain weight applied at the group
  // level, not per member) and lay out its rows' variable values.
  std::vector<Member> members(alternative.patterns.size());
  for (size_t i = 0; i < members.size(); ++i) {
    const query::TriplePattern& pattern = alternative.patterns[i];
    Member& m = members[i];
    m.leaf = std::make_unique<LeafStream>(xkg, scorer, local, pattern,
                                          pattern_index);
    m.rows = m.leaf->DrainRows();
    stats_ += m.leaf->DecodeStats();
    std::vector<size_t> slots;  // triple slot each variable reads
    const query::Term* terms[3] = {&pattern.s, &pattern.p, &pattern.o};
    for (size_t slot = 0; slot < 3; ++slot) {
      if (!terms[slot]->is_variable()) continue;
      query::VarId var = local.Require(terms[slot]->text);
      if (std::find(m.vars.begin(), m.vars.end(), var) != m.vars.end()) {
        continue;  // repeated variable: the leaf checked the slots agree
      }
      m.vars.push_back(var);
      slots.push_back(slot);
    }
    m.values.reserve(m.rows.size() * m.vars.size());
    for (const LeafStream::Row& row : m.rows) {
      const rdf::Triple& t = xkg.store().triple(row.triple);
      const rdf::TermId slot_terms[3] = {t.s, t.p, t.o};
      for (size_t slot : slots) m.values.push_back(slot_terms[slot]);
    }
  }
  // Join cheapest-first to keep the walk narrow.
  std::vector<size_t> order(members.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&members](size_t a, size_t b) {
    return members[a].rows.size() < members[b].rows.size();
  });
  for (size_t i : order) members_.push_back(std::move(members[i]));
  if (members_.front().rows.empty()) return;

  // Per depth: the member's columns whose variables earlier depths
  // bind, and the member's rows indexed on those columns.
  std::vector<bool> bound(local.size(), false);
  std::vector<std::vector<size_t>> shared(members_.size());
  std::vector<SharedValueIndex> indexes;
  indexes.reserve(members_.size());
  for (size_t depth = 0; depth < members_.size(); ++depth) {
    const Member& m = members_[depth];
    for (size_t c = 0; c < m.vars.size(); ++c) {
      if (bound[m.vars[c]]) shared[depth].push_back(c);
    }
    for (query::VarId var : m.vars) bound[var] = true;
    indexes.emplace_back(m.values, m.vars.size(), shared[depth]);
  }

  // Depth-first walk over the members in join order. `frame` holds the
  // local variables' values; no undo is needed, because every depth
  // rewrites all of its variables before a deeper depth reads them.
  std::vector<rdf::TermId> frame(local.size(), rdf::kNullTerm);
  std::vector<uint32_t> picked(members_.size());
  auto walk = [&](auto& self, size_t depth, double score) -> void {
    if (depth == members_.size()) {
      solutions_.push_back({score + chain_log, picks_.size()});
      picks_.insert(picks_.end(), picked.begin(), picked.end());
      return;
    }
    const Member& m = members_[depth];
    const std::vector<size_t>& cols = shared[depth];
    const size_t stride = m.vars.size();
    auto visit = [&](uint32_t r) {
      const rdf::TermId* values = m.values.data() + size_t{r} * stride;
      for (size_t c : cols) {
        if (values[c] != frame[m.vars[c]]) return;  // hash collision
      }
      for (size_t c = 0; c < stride; ++c) frame[m.vars[c]] = values[c];
      picked[depth] = r;
      self(self, depth + 1, score + m.rows[r].score);
    };
    if (cols.empty()) {
      for (uint32_t r = 0; r < m.rows.size(); ++r) visit(r);
    } else {
      uint64_t key = 0;
      for (size_t c : cols) key = HashCombine(key, frame[m.vars[c]]);
      for (uint32_t r : indexes[depth].Find(key)) visit(r);
    }
  };
  walk(walk, 0, 0.0);

  std::stable_sort(solutions_.begin(), solutions_.end(),
                   [](const Solution& a, const Solution& b) {
                     return a.score > b.score;
                   });
}

BindingStream::Item GroupStream::ItemFor(const Solution& solution) const {
  Item item;
  item.binding = query::Binding(num_global_vars_);
  item.log_score = solution.score;
  item.step.pattern_index = pattern_index_;
  item.step.matched_form = matched_form_;
  item.step.rules = rules_;
  for (size_t depth = 0; depth < members_.size(); ++depth) {
    const Member& m = members_[depth];
    const uint32_t r = picks_[solution.first_pick + depth];
    for (size_t c = 0; c < m.vars.size(); ++c) {
      // The global variables are the local table's prefix; the rest
      // are the group's existentials, projected away.
      if (m.vars[c] < num_global_vars_) {
        item.binding.Bind(m.vars[c], m.values[r * m.vars.size() + c]);
      }
    }
    item.step.triples.push_back(m.rows[r].triple);
    const std::vector<SoftMatch>& soft = m.leaf->soft_matches(m.rows[r]);
    item.step.soft_matches.insert(item.step.soft_matches.end(), soft.begin(),
                                  soft.end());
  }
  item.step.log_score = item.log_score;
  return item;
}

const BindingStream::Item* GroupStream::Peek() {
  if (next_ >= solutions_.size()) return nullptr;
  if (!current_.has_value()) current_ = ItemFor(solutions_[next_]);
  return &*current_;
}

void GroupStream::Pop() {
  TRINIT_CHECK(next_ < solutions_.size());
  ++next_;
  current_.reset();
}

double GroupStream::BestPossible() {
  return next_ < solutions_.size() ? solutions_[next_].score : kExhausted;
}

BindingStream::Stats GroupStream::DecodeStats() const { return stats_; }

double RelaxedStream::BoundOf(const xkg::Xkg& xkg,
                              const scoring::LmScorer& scorer,
                              const Alternative& alt) {
  double bound = scoring::LmScorer::LogWeight(alt.weight);
  double cheapest_pattern_cap = 0.0;
  for (const query::TriplePattern& pattern : alt.patterns) {
    rdf::TermId ids[3];
    bool dead = false;
    if (!ResolveForBound(xkg, pattern, ids, &dead)) {
      if (dead) return BindingStream::kExhausted;
      continue;  // token constant: not cheaply boundable, cap stays 0
    }
    // Head of the score-ordered posting list: the heaviest entry over
    // the block's prefix mass is exactly the scorer's list bound.
    rdf::ScoreOrderIndex::List list =
        xkg.store().ScoreOrdered(ids[0], ids[1], ids[2]);
    if (list.ids.empty()) return BindingStream::kExhausted;
    double cap = scorer.UpperBoundForList(
        rdf::ScoreOrderIndex::WeightOf(xkg.store().triple(list.ids.front())),
        list.mass);
    cheapest_pattern_cap = std::min(cheapest_pattern_cap, cap);
  }
  return bound + cheapest_pattern_cap;
}

double RelaxedStream::BoundOf(const xkg::Xkg& xkg, const Alternative& alt) {
  double bound = scoring::LmScorer::LogWeight(alt.weight);
  double cheapest_pattern_cap = 0.0;
  for (const query::TriplePattern& pattern : alt.patterns) {
    rdf::TermId ids[3];
    bool dead = false;
    if (!ResolveForBound(xkg, pattern, ids, &dead)) {
      if (dead) return BindingStream::kExhausted;
      continue;
    }
    size_t span = xkg.store().MatchCount(ids[0], ids[1], ids[2]);
    if (span == 0) return BindingStream::kExhausted;
    // Config-agnostic cap: numerator <= max_count under every scoring
    // ablation, mass >= span (counts are >= 1).
    double cap = std::log(
        std::min(1.0, static_cast<double>(xkg.store().max_count()) /
                          static_cast<double>(span)));
    cheapest_pattern_cap = std::min(cheapest_pattern_cap, cap);
  }
  return bound + cheapest_pattern_cap;
}

RelaxedStream::RelaxedStream(const xkg::Xkg& xkg,
                             const scoring::LmScorer& scorer,
                             const query::VarTable& global_vars,
                             std::vector<Alternative> alternatives,
                             size_t pattern_index)
    : xkg_(xkg),
      scorer_(scorer),
      global_vars_(global_vars),
      alternatives_(std::move(alternatives)),
      pattern_index_(pattern_index) {
  TRINIT_CHECK(!alternatives_.empty());
  // Order alternatives by their cheap upper bound (not just the chain
  // weight): this is what lets a heavyweight rule whose rewritten
  // pattern is hopeless (huge match list or no matches at all) stay
  // unopened behind a lighter but sharper one. Dead alternatives
  // (bound == kExhausted) are dropped outright.
  std::vector<size_t> order(alternatives_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<double> raw_bounds(alternatives_.size());
  for (size_t i = 0; i < alternatives_.size(); ++i) {
    raw_bounds[i] = BoundOf(xkg, scorer, alternatives_[i]);
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return raw_bounds[a] > raw_bounds[b];
  });
  std::vector<Alternative> sorted;
  sorted.reserve(alternatives_.size());
  for (size_t idx : order) {
    if (raw_bounds[idx] <= kExhausted) continue;
    bounds_.push_back(raw_bounds[idx]);
    sorted.push_back(std::move(alternatives_[idx]));
  }
  alternatives_ = std::move(sorted);
  if (!alternatives_.empty()) OpenNext();
}

void RelaxedStream::OpenNext() {
  TRINIT_CHECK(next_unopened_ < alternatives_.size());
  const Alternative& alt = alternatives_[next_unopened_++];
  if (alt.patterns.size() == 1) {
    open_.push_back(std::make_unique<LeafStream>(
        xkg_, scorer_, global_vars_, alt.patterns[0], pattern_index_,
        alt.rules, scoring::LmScorer::LogWeight(alt.weight)));
  } else {
    open_.push_back(std::make_unique<GroupStream>(xkg_, scorer_, global_vars_,
                                                  alt, pattern_index_));
  }
  open_heap_.Add(open_.back().get());
}

BindingStream* RelaxedStream::BestOpen() { return open_heap_.Best(); }

void RelaxedStream::EnsureInvariant() {
  // Open further alternatives while an unopened one could outscore the
  // best open item.
  while (next_unopened_ < alternatives_.size()) {
    double unopened_bound = bounds_[next_unopened_];
    BindingStream* best = BestOpen();
    double open_best =
        best == nullptr ? kExhausted : best->Peek()->log_score;
    if (unopened_bound > open_best) {
      OpenNext();
    } else {
      break;
    }
  }
}

const BindingStream::Item* RelaxedStream::Peek() {
  EnsureInvariant();
  BindingStream* best = BestOpen();
  return best == nullptr ? nullptr : best->Peek();
}

void RelaxedStream::Pop() {
  EnsureInvariant();
  BindingStream* best = BestOpen();
  TRINIT_CHECK(best != nullptr);
  best->Pop();
}

double RelaxedStream::BestPossible() {
  double bound = kExhausted;
  for (const auto& s : open_) bound = std::max(bound, s->BestPossible());
  if (next_unopened_ < alternatives_.size()) {
    bound = std::max(bound, bounds_[next_unopened_]);
  }
  return bound;
}

BindingStream::Stats RelaxedStream::DecodeStats() const {
  Stats stats;
  for (const auto& s : open_) stats += s->DecodeStats();
  return stats;
}

std::vector<Alternative> AlternativesForPattern(
    const relax::Rewriter& rewriter, const query::TriplePattern& pattern) {
  query::Query single({pattern}, {});
  std::vector<Alternative> out;
  for (relax::RewriteResult& rw : rewriter.EnumerateRewrites(single)) {
    out.push_back(Alternative{rw.query.patterns(), rw.weight,
                              std::move(rw.applied)});
  }
  return out;
}

}  // namespace trinit::topk
