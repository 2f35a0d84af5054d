#include "serve/serving_cache.h"

#include <functional>
#include <utility>

#include "util/mutex.h"

namespace trinit::serve {

namespace {

// Answer shards never outnumber the capacity, so the per-shard slice
// stays >= 1 without the total ever exceeding `answer_capacity` (a
// capacity below the shard count would otherwise silently cache one
// entry per shard). Zero capacity means answer caching off.
size_t EffectiveAnswerShards(const ServingCacheOptions& options) {
  size_t shards = options.num_shards == 0 ? 1 : options.num_shards;
  if (options.answer_capacity == 0) return 1;  // unused; lookups miss
  return shards < options.answer_capacity ? shards
                                          : options.answer_capacity;
}

}  // namespace

ServingCache::ServingCache(ServingCacheOptions options,
                           uint64_t initial_generation)
    : options_(options),
      generation_(initial_generation),
      plan_cache_(options.num_shards == 0 ? 1 : options.num_shards,
                  initial_generation),
      answer_shards_(EffectiveAnswerShards(options)) {
  if (options_.answer_capacity == 0) options_.cache_answers = false;
}

void ServingCache::BumpGeneration() {
  generation_.fetch_add(1, std::memory_order_acq_rel);
  plan_cache_.BumpGeneration();
  metrics_.invalidations.Increment();
}

void ServingCache::BindMetrics(const Metrics& metrics) {
  metrics_ = metrics;
  plan_cache_.BindMetrics(metrics.plan_hits, metrics.plan_misses,
                          metrics.plan_invalidated);
}

ServingCache::AnswerShard& ServingCache::ShardFor(
    const std::string& key) const {
  return answer_shards_[std::hash<std::string>{}(key) %
                        answer_shards_.size()];
}

size_t ServingCache::ShardCapacity() const {
  // Shard count is clamped to the capacity at construction, so the
  // floor division is >= 1 and the shards sum to <= answer_capacity.
  return options_.answer_capacity / answer_shards_.size();
}

std::string ServingCache::AnswerKey(const query::Query& canonical,
                                    const scoring::ScorerOptions& scorer,
                                    const topk::ProcessorOptions& processor,
                                    uint64_t generation) {
  // Every knob that can change the ranked answer set goes in; the
  // wall-clock deadline stays out (see header). The rendering is cheap
  // and unambiguous — fields are '|'-separated in a fixed order.
  std::string key;
  key.reserve(160);
  key += "g=" + std::to_string(generation);
  key += "|q=" + canonical.ToString();
  key += "|k=" + std::to_string(processor.k);
  key += "|sc=";
  key += scorer.use_tf ? 't' : '-';
  key += scorer.use_idf ? 'i' : '-';
  key += scorer.use_confidence ? 'c' : '-';
  key += ":" + std::to_string(scorer.token_match_threshold);
  key += "|rx=";
  key += processor.enable_relaxation ? '1' : '0';
  key += ":" + std::to_string(processor.rewrite.max_depth);
  key += ":" + std::to_string(processor.rewrite.min_weight);
  key += ":" + std::to_string(processor.rewrite.max_rewrites);
  key += ":" + std::to_string(processor.max_query_variants);
  key += "|jn=";
  key += processor.use_cost_order ? 'c' : 'p';
  key += processor.join.max_over_derivations ? 'm' : 's';
  key += processor.join.drain ? 'd' : '-';
  key += processor.exhaustive ? 'e' : '-';
  key += ":" + std::to_string(processor.join.max_pulls);
  return key;
}

std::shared_ptr<const topk::TopKResult> ServingCache::LookupAnswer(
    const std::string& key) const {
  if (!options_.enabled || !options_.cache_answers) return nullptr;
  AnswerShard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    metrics_.answer_misses.Increment();
    return nullptr;
  }
  ++shard.hits;
  metrics_.answer_hits.Increment();
  metrics_.body_shares.Increment();
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  // Shared immutable body: the lock covers only the refcount bump and
  // LRU splice — no deep copy of k answers. Per-request "the hit did no
  // work" stats are the serving layer's copy-on-serve concern
  // (`core::QueryResponse::stats`), not the stored body's.
  return it->second->second;
}

void ServingCache::StoreAnswer(
    const std::string& key,
    std::shared_ptr<const topk::TopKResult> result) const {
  if (!options_.enabled || !options_.cache_answers) return;
  if (result == nullptr) return;
  AnswerShard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Racing duplicate store (two threads missed on the same key):
    // refresh the value and position, no growth. Readers still holding
    // the old body keep it alive through their own shared_ptr.
    it->second->second = std::move(result);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(key, std::move(result));
  shard.index.emplace(key, shard.lru.begin());
  ++shard.insertions;
  metrics_.answer_insertions.Increment();
  const size_t capacity = ShardCapacity();
  while (shard.lru.size() > capacity) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    ++shard.evictions;
    metrics_.answer_evictions.Increment();
  }
}

ServingCache::Counters ServingCache::counters() const {
  Counters out;
  out.generation = generation();
  for (const AnswerShard& shard : answer_shards_) {
    MutexLock lock(shard.mu);
    out.answer_hits += shard.hits;
    out.answer_misses += shard.misses;
    out.answer_insertions += shard.insertions;
    out.answer_evictions += shard.evictions;
    out.answer_entries += shard.lru.size();
  }
  plan::PlanCache::Stats plan = plan_cache_.stats();
  out.plan_hits = plan.hits;
  out.plan_misses = plan.misses;
  out.plan_invalidated = plan.invalidated;
  out.plan_entries = plan_cache_.size();
  return out;
}

}  // namespace trinit::serve
