#include "rdf/graph_stats.h"

#include <algorithm>

namespace trinit::rdf {
namespace {

// Counts distinct values in a sorted range projected by `proj`.
template <typename It, typename Proj>
uint32_t CountDistinct(It begin, It end, Proj proj) {
  uint32_t n = 0;
  for (It it = begin; it != end; ++it) {
    if (it == begin || proj(*it) != proj(*std::prev(it))) ++n;
  }
  return n;
}

}  // namespace

GraphStats GraphStats::Compute(const TripleStore& store) {
  GraphStats gs;
  std::unordered_map<TermId, std::vector<std::pair<TermId, TermId>>> raw_args;
  for (const Triple& t : store.triples()) {
    PredicateStats& ps = gs.stats_[t.p];
    if (ps.triple_count == 0) gs.predicates_.push_back(t.p);
    ++ps.triple_count;
    ps.evidence_count += t.count;
    raw_args[t.p].emplace_back(t.s, t.o);
  }
  std::sort(gs.predicates_.begin(), gs.predicates_.end());
  for (TermId p : gs.predicates_) {
    auto& pairs = raw_args[p];
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    PredicateStats& ps = gs.stats_[p];
    std::vector<TermId> subjects, objects;
    subjects.reserve(pairs.size());
    objects.reserve(pairs.size());
    for (const auto& [s, o] : pairs) {
      subjects.push_back(s);
      objects.push_back(o);
    }
    std::sort(subjects.begin(), subjects.end());
    std::sort(objects.begin(), objects.end());
    ps.distinct_subjects =
        CountDistinct(subjects.begin(), subjects.end(), [](TermId x) { return x; });
    ps.distinct_objects =
        CountDistinct(objects.begin(), objects.end(), [](TermId x) { return x; });
    gs.args_.emplace(p, std::move(pairs));
  }
  return gs;
}

Result<GraphStats> GraphStats::FromSnapshot(
    std::vector<TermId> predicates,
    std::unordered_map<TermId, PredicateStats> stats,
    std::unordered_map<TermId, ArgPairs> args,
    SnapshotValidation validation) {
  if (stats.size() != predicates.size() || args.size() != predicates.size()) {
    return Status::InvalidArgument("graph-stats snapshot size mismatch");
  }
  for (size_t i = 0; i < predicates.size(); ++i) {
    if (i > 0 && predicates[i - 1] >= predicates[i]) {
      return Status::InvalidArgument(
          "graph-stats snapshot predicates not strictly ascending");
    }
    auto it = args.find(predicates[i]);
    if (stats.find(predicates[i]) == stats.end() || it == args.end()) {
      return Status::InvalidArgument(
          "graph-stats snapshot missing predicate entry");
    }
    if (validation == SnapshotValidation::kFull) {
      const ArgPairs& pairs = it->second;
      for (size_t j = 1; j < pairs.size(); ++j) {
        if (!(pairs[j - 1] < pairs[j])) {
          return Status::InvalidArgument(
              "graph-stats snapshot args not sorted for a predicate");
        }
      }
    }
  }
  GraphStats gs;
  gs.predicates_ = std::move(predicates);
  gs.stats_ = std::move(stats);
  gs.args_ = std::move(args);
  return gs;
}

const GraphStats::PredicateStats* GraphStats::ForPredicate(TermId p) const {
  auto it = stats_.find(p);
  return it == stats_.end() ? nullptr : &it->second;
}

std::span<const std::pair<TermId, TermId>> GraphStats::Args(TermId p) const {
  auto it = args_.find(p);
  return it == args_.end() ? std::span<const std::pair<TermId, TermId>>{}
                           : it->second.span();
}

size_t GraphStats::resident_bytes() const {
  size_t bytes = 0;
  for (const auto& [p, pairs] : args_) bytes += pairs.owned_bytes();
  return bytes;
}

size_t GraphStats::ArgsOverlap(TermId p1, TermId p2) const {
  const auto& a = Args(p1);
  const auto& b = Args(p2);
  size_t overlap = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++overlap;
      ++ia;
      ++ib;
    }
  }
  return overlap;
}

size_t GraphStats::InverseArgsOverlap(TermId p1, TermId p2) const {
  const auto& a = Args(p1);
  std::vector<std::pair<TermId, TermId>> swapped;
  swapped.reserve(Args(p2).size());
  for (const auto& [s, o] : Args(p2)) swapped.emplace_back(o, s);
  std::sort(swapped.begin(), swapped.end());
  size_t overlap = 0;
  auto ia = a.begin();
  auto ib = swapped.begin();
  while (ia != a.end() && ib != swapped.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++overlap;
      ++ia;
      ++ib;
    }
  }
  return overlap;
}

double GraphStats::MinedWeight(TermId p1, TermId p2) const {
  const auto& b = Args(p2);
  if (b.empty()) return 0.0;
  return static_cast<double>(ArgsOverlap(p1, p2)) /
         static_cast<double>(b.size());
}

double GraphStats::MinedInverseWeight(TermId p1, TermId p2) const {
  const auto& b = Args(p2);
  if (b.empty()) return 0.0;
  return static_cast<double>(InverseArgsOverlap(p1, p2)) /
         static_cast<double>(b.size());
}

}  // namespace trinit::rdf
