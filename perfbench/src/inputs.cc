#include "inputs.h"

#include <algorithm>
#include <set>
#include <utility>

#include "eval/workload.h"
#include "harness.h"

namespace perfbench {
namespace {

using synth::EntityClass;

// Fixes which of explore's pool queries are held out for the warm-up.
constexpr uint64_t kWarmSplitSeed = 0x2016;

// The generator's archetypes, in a fixed order so family indices mean
// the same thing in every run.
const std::vector<std::string>& Archetypes() {
  static const std::vector<std::string> kNames = {
      "granularity", "inversion",  "text-only",
      "paraphrase",  "join-campus", "join-advisor"};
  return kNames;
}

Stream FromWorkload(eval::Workload workload) {
  Stream stream;
  stream.families = Archetypes();
  for (eval::EvalQuery& q : workload.queries) {
    auto it =
        std::find(stream.families.begin(), stream.families.end(), q.archetype);
    if (it == stream.families.end()) {
      stream.families.push_back(q.archetype);
      it = stream.families.end() - 1;
    }
    Request request;
    request.text = std::move(q.text);
    request.family = static_cast<size_t>(it - stream.families.begin());
    request.qid = std::move(q.id);
    stream.requests.push_back(std::move(request));
  }
  stream.qrels = std::move(workload.qrels);
  return stream;
}

// A KG predicate as a typed edge; inverse predicates are edges too.
struct Edge {
  std::string name;
  EntityClass from;
  EntityClass to;
};

std::vector<Edge> Edges(const synth::World& world) {
  std::vector<Edge> edges;
  for (const synth::PredicateSpec& p : world.spec.predicates) {
    edges.push_back({p.name, p.subject_class, p.object_class});
    if (!p.inverse_name.empty()) {
      edges.push_back({p.inverse_name, p.object_class, p.subject_class});
    }
  }
  return edges;
}

// A random entity of `cls` whose name is a bare query word, or empty
// when the draws find none (field names contain spaces).
std::string EntityOf(const synth::World& world, EntityClass cls, Rng& rng) {
  const std::vector<uint32_t>& members = world.OfClass(cls);
  for (int attempt = 0; attempt < 8 && !members.empty(); ++attempt) {
    const std::string& name =
        world.entities[members[rng.Uniform(members.size())]].name;
    if (name.find(' ') == std::string::npos) return name;
  }
  return "";
}

// Families of the join stream and their rotation: a 20-request cycle in
// which the all-wildcard chain appears once.
// Queries in the small world's pool: about all it supports.
constexpr size_t kSmallPool = 400;

enum Family { kBoundChain, kStar, kMixedChain, kErJoin, kWildcardChain };
const char* const kFamilyNames[] = {"bound-chain", "star", "mixed-chain",
                                    "er-join", "wildcard-chain"};
constexpr Family kRotation[] = {
    kBoundChain, kStar,       kMixedChain, kBoundChain, kStar,
    kErJoin,     kBoundChain, kMixedChain, kStar,       kBoundChain,
    kStar,       kWildcardChain, kBoundChain, kMixedChain, kStar,
    kErJoin,     kBoundChain, kStar,       kMixedChain, kBoundChain};

// A type-consistent walk of `length` edges, `?v0 p1 ?v1 ; ?v1 p2 ?v2 ...`.
// `wildcard` (if < length) replaces that step's predicate by a
// variable; the last object is bound to an entity with probability 3/4.
std::string Chain(const synth::World& world, const std::vector<Edge>& edges,
                  Rng& rng, size_t length, size_t wildcard,
                  const std::string& suffix) {
  std::vector<const Edge*> walk;
  while (walk.size() < length) {
    walk.clear();
    walk.push_back(&edges[rng.Uniform(edges.size())]);
    while (walk.size() < length) {
      std::vector<const Edge*> next;
      for (const Edge& e : edges) {
        if (e.from == walk.back()->to) next.push_back(&e);
      }
      if (next.empty()) break;  // dead end: draw a new walk
      walk.push_back(next[rng.Uniform(next.size())]);
    }
  }
  const std::string anchor =
      rng.Uniform(4) != 0 ? EntityOf(world, walk.back()->to, rng) : "";
  std::string text;
  for (size_t i = 0; i < length; ++i) {
    if (i > 0) text += " ; ";
    text += "?v" + std::to_string(i) + suffix + ' ';
    text += i == wildcard ? "?p" + std::to_string(i) + suffix
                          : walk[i]->name;
    text += ' ';
    text += !anchor.empty() && i + 1 == length
                ? anchor
                : "?v" + std::to_string(i + 1) + suffix;
  }
  return text;
}

// `?x p1 ?y1 ; ?x p2 ?y2 ...` over 2-4 distinct person predicates, one
// object bound to an entity with probability 3/4.
std::string Star(const synth::World& world, const std::vector<Edge>& edges,
                 Rng& rng, const std::string& suffix) {
  std::vector<const Edge*> arms;
  for (const Edge& e : edges) {
    if (e.from == EntityClass::kPerson) arms.push_back(&e);
  }
  rng.Shuffle(arms);
  arms.resize(std::min<size_t>(arms.size(), 2 + rng.Uniform(3)));
  const size_t anchored =
      rng.Uniform(4) != 0 ? rng.Uniform(arms.size()) : SIZE_MAX;
  std::string text;
  for (size_t i = 0; i < arms.size(); ++i) {
    if (i > 0) text += " ; ";
    text += "?x" + suffix + ' ' + arms[i]->name + ' ';
    const std::string anchor =
        i == anchored ? EntityOf(world, arms[i]->to, rng) : "";
    text += anchor.empty() ? "?y" + std::to_string(i) + suffix : anchor;
  }
  return text;
}

}  // namespace

synth::World LargeWorld() {
  return synth::KgGenerator::Generate(synth::WorldSpec::Scaled(50000));
}

synth::World SmallWorld() {
  return synth::KgGenerator::Generate(synth::WorldSpec::Scaled(13000));
}

Stream QueryPool(const synth::World& world, size_t count) {
  eval::WorkloadGenerator::Options options;
  options.num_queries = count;
  options.seed = 99;
  return FromWorkload(eval::WorkloadGenerator::Generate(world, options));
}

void ExploreStreams(const synth::World& world, uint64_t seed, size_t count,
                    size_t warm, Stream* measured, Stream* warmup) {
  *measured = QueryPool(world, count);
  // Which queries are held out for the warm-up is part of the dataset,
  // so every seed measures the same queries, in its own order.
  Rng split(kWarmSplitSeed);
  split.Shuffle(measured->requests);
  warmup->families = measured->families;
  const size_t keep = measured->requests.size() -
                      std::min(warm, measured->requests.size());
  warmup->requests.assign(measured->requests.begin() + keep,
                          measured->requests.end());
  measured->requests.resize(keep);
  Rng rng(seed);
  rng.Shuffle(measured->requests);
  rng.Shuffle(warmup->requests);
}

Stream JoinStream(const synth::World& world, uint64_t seed, size_t count,
                  const std::string& tag) {
  Stream stream;
  stream.families.assign(std::begin(kFamilyNames), std::end(kFamilyNames));
  Rng rng(seed);

  // Judged ER joins, each used once, in seeded order.
  Stream pool = QueryPool(world, kSmallPool);
  std::vector<Request> judged;
  for (Request& r : pool.requests) {
    const std::string& archetype = pool.families[r.family];
    if (archetype == "join-campus" || archetype == "join-advisor") {
      judged.push_back(std::move(r));
    }
  }
  rng.Shuffle(judged);
  stream.qrels = std::move(pool.qrels);

  const std::vector<Edge> edges = Edges(world);
  std::set<std::string> seen;
  size_t next_judged = 0;
  size_t wildcard_chains = 0;
  for (size_t i = 0; stream.requests.size() < count; ++i) {
    Family family = kRotation[i % std::size(kRotation)];
    if (family == kErJoin && next_judged == judged.size()) {
      family = kBoundChain;  // the judged pool is used up
    }
    Request request;
    request.family = family;
    if (family == kErJoin) {
      request.text = judged[next_judged].text;
      request.qid = judged[next_judged].qid;
      ++next_judged;
    } else if (family == kWildcardChain) {
      // Length cycles 2, 3, 4; only the variable names differ between
      // occurrences of one length.
      const size_t length = 2 + wildcard_chains % 3;
      const std::string id = tag + std::to_string(wildcard_chains++);
      for (size_t p = 0; p < length; ++p) {
        if (p > 0) request.text += " ; ";
        request.text += "?w" + std::to_string(p) + id + " ?p" +
                        std::to_string(p + 1) + id + " ?w" +
                        std::to_string(p + 1) + id;
      }
    } else {
      // Redraw duplicates; a rare survivor gets distinct variable names.
      for (int attempt = 0; attempt <= 50; ++attempt) {
        const std::string suffix =
            attempt < 50 ? "" : "_" + tag + std::to_string(i);
        const size_t length = 2 + rng.Uniform(3);
        if (family == kStar) {
          request.text = Star(world, edges, rng, suffix);
        } else {
          request.text = Chain(world, edges, rng, length,
                               family == kMixedChain ? rng.Uniform(length)
                                                     : SIZE_MAX,
                               suffix);
        }
        if (!seen.count(request.text)) break;
      }
    }
    seen.insert(request.text);
    stream.requests.push_back(std::move(request));
  }
  return stream;
}

}  // namespace perfbench
