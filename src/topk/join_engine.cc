#include "topk/join_engine.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <string>

#include "scoring/lm_scorer.h"
#include "util/hash.h"
#include "util/logging.h"

namespace trinit::topk {
namespace {

/// Hash of `binding`'s values over the signature vars. Returns false
/// when any signature variable is unbound (the caller must treat the
/// item/probe as a wildcard). Collisions are harmless: `MergedWith`
/// remains the correctness gate, the buckets only pre-filter.
bool HashSignature(const query::Binding& binding,
                   const std::vector<query::VarId>& sig, uint64_t* hash) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (query::VarId v : sig) {
    rdf::TermId value = binding.Get(v);
    if (value == rdf::kNullTerm) return false;
    h = HashCombine(h, value);
  }
  *hash = h;
  return true;
}

}  // namespace

JoinEngine::JoinEngine(std::vector<std::unique_ptr<BindingStream>> streams,
                       const query::VarTable& vars,
                       std::vector<query::VarId> projection, Options options)
    : streams_(std::move(streams)),
      vars_(vars),
      projection_(std::move(projection)),
      options_(std::move(options)) {
  const size_t n = streams_.size();
  const plan::JoinPlan* plan = options_.plan.get();
  TRINIT_CHECK(plan == nullptr || plan->num_patterns() == n);
  seen_.resize(n);
  if (plan != nullptr) {
    for (SeenState& state : seen_) {
      state.buckets.resize(n);
      state.wildcard.resize(n);
    }
  }
  // Per pulled stream, a visitation order over the other streams that
  // keeps every step hash-probable: prefer the stream whose widest join
  // signature points at something already in the frame (the pulled
  // stream or an earlier visit); only a disconnected stream joins as a
  // cross product (kNoPartner, linear scan). Without a plan nothing has
  // a partner, so the lowest-index placeholder wins every step: index
  // order with full scans.
  const std::vector<size_t> no_preference;
  visit_order_.resize(n);
  probe_partner_.resize(n);
  for (size_t s = 0; s < n; ++s) {
    std::vector<bool> in_frame(n, false);
    in_frame[s] = true;
    std::vector<bool> placed(n, false);
    placed[s] = true;
    for (size_t step = 0; step + 1 < n; ++step) {
      size_t best = kNoPartner;
      size_t best_partner = kNoPartner;
      size_t best_width = 0;
      for (size_t j = 0; j < n; ++j) {
        if (placed[j]) continue;
        size_t partner = kNoPartner;
        for (size_t a :
             plan != nullptr ? plan->probe_preference[j] : no_preference) {
          if (in_frame[a]) {
            partner = a;
            break;
          }
        }
        if (best == kNoPartner && partner == kNoPartner) {
          best = j;  // disconnected placeholder; a keyed one may win
          continue;
        }
        if (partner == kNoPartner) continue;
        size_t width = plan->JoinKey(j, partner).size();
        if (best_partner == kNoPartner || width > best_width) {
          best = j;
          best_partner = partner;
          best_width = width;
        }
      }
      visit_order_[s].push_back(best);
      probe_partner_[s].push_back(best_partner);
      placed[best] = true;
      in_frame[best] = true;
    }
  }
  top1_.assign(n, BindingStream::kExhausted);
}

double JoinEngine::KthBest() const {
  if (answers_.size() < static_cast<size_t>(options_.k)) {
    return BindingStream::kExhausted;
  }
  std::vector<double> scores;
  scores.reserve(answers_.size());
  for (const auto& [key, ans] : answers_) scores.push_back(ans.score);
  std::nth_element(scores.begin(), scores.begin() + (options_.k - 1),
                   scores.end(), std::greater<double>());
  return scores[options_.k - 1];
}

double JoinEngine::Threshold() const {
  // T = max_i (BestPossible_i + sum_{j != i} top1_j). A stream that has
  // not delivered anything yet contributes its BestPossible as top1_j.
  double threshold = BindingStream::kExhausted;
  for (size_t i = 0; i < streams_.size(); ++i) {
    double bound_i = streams_[i]->BestPossible();
    if (bound_i <= BindingStream::kExhausted) continue;
    double total = bound_i;
    bool feasible = true;
    for (size_t j = 0; j < streams_.size(); ++j) {
      if (j == i) continue;
      double tj = top1_[j] > BindingStream::kExhausted
                      ? top1_[j]
                      : streams_[j]->BestPossible();
      if (tj <= BindingStream::kExhausted) {
        feasible = false;  // stream j can never deliver: no joins at all
        break;
      }
      total += tj;
    }
    if (feasible) threshold = std::max(threshold, total);
  }
  return threshold;
}

void JoinEngine::Emit(const query::Binding& binding, double score,
                      std::vector<DerivationStep> derivation) {
  // Projection variables must be bound for the answer to be presentable.
  for (query::VarId v : projection_) {
    if (!binding.IsBound(v)) return;
  }
  std::string key = binding.KeyFor(projection_);
  auto it = answers_.find(key);
  if (it == answers_.end()) {
    Answer ans;
    ans.binding = binding;
    ans.score = score;
    ans.derivation = std::move(derivation);
    answers_.emplace(std::move(key), std::move(ans));
    return;
  }
  if (options_.max_over_derivations) {
    // Paper §4: "the score of an answer [is] the maximal one obtained
    // through any such sequence [of relaxations]".
    if (score > it->second.score) {
      it->second.score = score;
      it->second.binding = binding;
      it->second.derivation = std::move(derivation);
    }
  } else {
    // Probabilistic-sum ablation: log(exp(a) + exp(b)), numerically
    // stabilized; keeps the better derivation for explanation.
    double hi = std::max(it->second.score, score);
    double lo = std::min(it->second.score, score);
    it->second.score = hi + std::log1p(std::exp(lo - hi));
    if (score >= hi && !derivation.empty()) {
      it->second.binding = binding;
      it->second.derivation = std::move(derivation);
    }
  }
}

void JoinEngine::Insert(size_t stream_idx, BindingStream::Item item) {
  SeenState& state = seen_[stream_idx];
  state.items.push_back(std::move(item));
  if (options_.plan == nullptr) return;  // no join keys to partition by
  const uint32_t pos = static_cast<uint32_t>(state.items.size() - 1);
  const query::Binding& binding = state.items.back().binding;
  for (size_t a = 0; a < streams_.size(); ++a) {
    if (a == stream_idx) continue;
    const std::vector<query::VarId>& sig =
        options_.plan->JoinKey(stream_idx, a);
    if (sig.empty()) continue;  // cross-product pair: linear anyway
    uint64_t h = 0;
    if (HashSignature(binding, sig, &h)) {
      state.buckets[a][h].push_back(pos);
    } else {
      state.wildcard[a].push_back(pos);
    }
  }
}

void JoinEngine::Combine(size_t stream_idx,
                         const BindingStream::Item& item) {
  // Backtracking join of `item` with one seen item from every other
  // stream, visited in the precomputed connectivity order for
  // `stream_idx`: every step except a cross product probes a hash
  // partition keyed off something already merged into the frame.
  struct Frame {
    query::Binding binding;
    double score;
  };
  const size_t n = streams_.size();
  std::vector<const BindingStream::Item*> picked(n, nullptr);
  picked[stream_idx] = &item;

  std::function<void(size_t, const Frame&)> recurse =
      [&](size_t depth, const Frame& frame) {
        if (depth + 1 == n) {
          ++stats_.combinations_emitted;
          std::vector<DerivationStep> derivation;
          derivation.reserve(n);
          for (const BindingStream::Item* p : picked) {
            derivation.push_back(p->step);
          }
          // `picked` is indexed by execution position; report the
          // derivation in original pattern order so explanations (and
          // the structural-rule attribution on the first step) never
          // depend on the plan.
          std::sort(derivation.begin(), derivation.end(),
                    [](const DerivationStep& a, const DerivationStep& b) {
                      return a.pattern_index < b.pattern_index;
                    });
          Emit(frame.binding, frame.score, std::move(derivation));
          return;
        }
        const size_t idx = visit_order_[stream_idx][depth];
        const size_t partner = probe_partner_[stream_idx][depth];
        const SeenState& state = seen_[idx];
        auto try_candidate = [&](const BindingStream::Item& cand) {
          ++stats_.combinations_tried;
          auto merged = frame.binding.MergedWith(cand.binding);
          if (!merged.has_value()) return;
          picked[idx] = &cand;
          recurse(depth + 1, Frame{std::move(*merged),
                                   frame.score + cand.log_score});
        };

        bool probed = false;
        if (partner != kNoPartner) {
          uint64_t h = 0;
          if (HashSignature(frame.binding,
                            options_.plan->JoinKey(idx, partner), &h)) {
            ++stats_.partition_probes;
            auto bucket = state.buckets[partner].find(h);
            if (bucket != state.buckets[partner].end()) {
              for (uint32_t pos : bucket->second) {
                try_candidate(state.items[pos]);
              }
            }
            for (uint32_t pos : state.wildcard[partner]) {
              try_candidate(state.items[pos]);
            }
            probed = true;
          } else {
            // The frame leaves a signature var unbound (a relaxed form
            // dropped it): the key cannot be computed, scan linearly.
            ++stats_.partition_fallbacks;
          }
        }
        if (!probed) {
          for (const BindingStream::Item& cand : state.items) {
            try_candidate(cand);
          }
        }
        picked[idx] = nullptr;
      };
  recurse(0, Frame{item.binding, item.log_score});
}

std::vector<Answer> JoinEngine::Run() {
  constexpr size_t kDeadlineCheckMask = 63;  // amortize the clock reads
  const bool has_deadline =
      options_.deadline != std::chrono::steady_clock::time_point{};
  // Pull selection: stream heads only descend, so a lazy max-heap
  // re-peeks at most the stale top instead of every stream every round.
  // Ties break by stream index (insertion order below), so each pull
  // takes the highest head, the lowest index among equals.
  LazyMaxHeap<size_t> pull_heap;
  for (size_t i = 0; i < streams_.size(); ++i) {
    const BindingStream::Item* item = streams_[i]->Peek();
    if (item != nullptr) pull_heap.Push(i, item->log_score);
  }
  auto head_score = [this](size_t i) -> std::optional<double> {
    const BindingStream::Item* item = streams_[i]->Peek();
    if (item == nullptr) return std::nullopt;
    return item->log_score;
  };
  while (stats_.items_pulled < options_.max_pulls) {
    if (has_deadline && (stats_.items_pulled & kDeadlineCheckMask) == 0 &&
        std::chrono::steady_clock::now() >= options_.deadline) {
      stats_.deadline_hit = true;
      break;
    }
    if (!options_.drain) {
      // Termination test first: with k answers at or above the
      // threshold, no unseen combination can change the top-k.
      double kth = KthBest();
      double threshold = Threshold();
      if (threshold <= BindingStream::kExhausted) break;  // all exhausted
      if (kth > BindingStream::kExhausted && kth >= threshold) {
        stats_.early_terminated = true;
        break;
      }
    }

    // Pull from the stream with the highest next item.
    std::optional<size_t> best = pull_heap.Best(head_score);
    if (!best.has_value()) break;  // everything exhausted
    const size_t best_idx = *best;

    BindingStream::Item item = *streams_[best_idx]->Peek();
    streams_[best_idx]->Pop();
    ++stats_.items_pulled;
    top1_[best_idx] = std::max(top1_[best_idx], item.log_score);
    Insert(best_idx, std::move(item));
    Combine(best_idx, seen_[best_idx].items.back());
  }

  // Laziness accounting: how much of the underlying index lists the
  // streams decoded on this run's behalf, and what they never touched.
  BindingStream::Stats decode_stats;
  for (const auto& stream : streams_) decode_stats += stream->DecodeStats();
  stats_.items_decoded += decode_stats.items_decoded;
  stats_.items_skipped += decode_stats.items_skipped;
  stats_.per_stream_pulled.reserve(seen_.size());
  for (const SeenState& state : seen_) {
    stats_.per_stream_pulled.push_back(state.items.size());
  }

  std::vector<Answer> out;
  out.reserve(answers_.size());
  for (auto& [key, ans] : answers_) out.push_back(std::move(ans));
  std::sort(out.begin(), out.end(), [](const Answer& a, const Answer& b) {
    return a.score > b.score;
  });
  if (out.size() > static_cast<size_t>(options_.k)) {
    out.resize(options_.k);
  }
  return out;
}

}  // namespace trinit::topk
