#include "rdf/score_order_index.h"

#include <algorithm>

#include "util/logging.h"
#include "util/timer.h"

namespace trinit::rdf {

ScoreOrderIndex::Key ScoreOrderIndex::KeyFor(Shape shape, const Triple& t) {
  switch (shape) {
    case kAll:
      return {0, 0};
    case kS:
      return {t.s, 0};
    case kP:
      return {t.p, 0};
    case kO:
      return {t.o, 0};
    case kSP:
      return {t.s, t.p};
    case kSO:
      return {t.s, t.o};
    case kPO:
      return {t.p, t.o};
    default:
      TRINIT_CHECK(false);
      return {};
  }
}

ScoreOrderIndex ScoreOrderIndex::Build(std::span<const Triple> triples) {
  (void)triples;
  ScoreOrderIndex index;
  // Lazy: only the (stable-address) shape slots are allocated here; each
  // permutation sorts on its first Lookup.
  index.shapes_ = std::make_unique<std::array<ShapeIndex, kNumShapes>>();
  return index;
}

ScoreOrderIndex::ShapeIndex& ScoreOrderIndex::Shaped(
    std::span<const Triple> triples, Shape shape) const {
  ShapeIndex& shaped = (*shapes_)[shape];
  std::call_once(shaped.once, [this, &triples, shape, &shaped]() {
    WallTimer sort_timer;
    const size_t n = triples.size();
    // Decorate once instead of re-deriving keys and weights in every
    // comparison: the sort dominates the build.
    struct Record {
      Key key;
      double weight;
      TripleId id;
    };
    std::vector<Record> records(n);
    for (size_t i = 0; i < n; ++i) {
      records[i] = {KeyFor(shape, triples[i]), WeightOf(triples[i]),
                    static_cast<TripleId>(i)};
    }
    std::sort(records.begin(), records.end(),
              [](const Record& a, const Record& b) {
                if (a.key != b.key) return a.key < b.key;
                if (a.weight != b.weight) return a.weight > b.weight;
                return a.id < b.id;
              });
    std::vector<TripleId> ids(n);
    std::vector<uint64_t> prefix_mass(n + 1);
    prefix_mass[0] = 0;
    for (size_t i = 0; i < n; ++i) {
      ids[i] = records[i].id;
      prefix_mass[i + 1] = prefix_mass[i] + triples[records[i].id].count;
    }
    shaped.ids = std::move(ids);
    shaped.prefix_mass = std::move(prefix_mass);
    shaped.built.store(true, std::memory_order_release);
    builds_.Increment();
    sort_ms_.Observe(sort_timer.ElapsedMillis());
  });
  return shaped;
}

size_t ScoreOrderIndex::built_shapes() const {
  if (shapes_ == nullptr) return 0;
  size_t built = 0;
  for (const ShapeIndex& shaped : *shapes_) {
    if (shaped.built.load(std::memory_order_acquire)) ++built;
  }
  return built;
}

std::vector<ScoreOrderIndex::ShapeView> ScoreOrderIndex::BuiltShapeViews()
    const {
  std::vector<ShapeView> out;
  if (shapes_ == nullptr) return out;
  for (uint32_t shape = 0; shape < kNumShapes; ++shape) {
    const ShapeIndex& shaped = (*shapes_)[shape];
    if (!shaped.built.load(std::memory_order_acquire)) continue;
    out.push_back({shape, shaped.ids.span(), shaped.prefix_mass.span()});
  }
  return out;
}

size_t ScoreOrderIndex::resident_bytes() const {
  if (shapes_ == nullptr) return 0;
  size_t bytes = 0;
  for (const ShapeIndex& shaped : *shapes_) {
    if (!shaped.built.load(std::memory_order_acquire)) continue;
    bytes += shaped.ids.owned_bytes() + shaped.prefix_mass.owned_bytes();
  }
  return bytes;
}

Status ScoreOrderIndex::RestoreShape(ShapeSnapshot snapshot,
                                     std::span<const Triple> triples,
                                     SnapshotValidation validation) {
  const size_t num_triples = triples.size();
  if (shapes_ == nullptr) {
    return Status::FailedPrecondition(
        "RestoreShape on a default-constructed index (call Build first)");
  }
  if (snapshot.shape >= kNumShapes) {
    return Status::InvalidArgument("score shape id out of range: " +
                                   std::to_string(snapshot.shape));
  }
  const Shape shape = static_cast<Shape>(snapshot.shape);
  if (snapshot.ids.size() != num_triples ||
      snapshot.prefix_mass.size() != num_triples + 1 ||
      snapshot.prefix_mass.front() != 0) {
    return Status::InvalidArgument("score shape size mismatch for shape " +
                                   std::to_string(snapshot.shape));
  }
  // Re-verify, in O(n), everything Range()/Lookup() rely on: the ids
  // must be a permutation (a duplicate silently drops a triple), in
  // exactly the build order — key blocks ascending, weight descending
  // within a block, id tiebreak — or the binary searches and the
  // emit-best-first contract break; and each prefix mass must equal the
  // running count sum, or unsigned mass subtraction wraps. Corruption
  // must yield a typed error, never wrong answers. The trusted mmap
  // mode skips this walk by explicit caller opt-in (the O(1) size
  // checks above still ran).
  if (validation == SnapshotValidation::kFull) {
    std::vector<bool> seen(num_triples, false);
    for (size_t i = 0; i < num_triples; ++i) {
      const TripleId id = snapshot.ids[i];
      if (id >= num_triples || seen[id]) {
        return Status::InvalidArgument(
            "score shape ids are not a permutation of the triple ids");
      }
      seen[id] = true;
      if (i > 0) {
        const TripleId prev = snapshot.ids[i - 1];
        const Key pk = KeyFor(shape, triples[prev]);
        const Key ck = KeyFor(shape, triples[id]);
        const double pw = WeightOf(triples[prev]);
        const double cw = WeightOf(triples[id]);
        const bool ordered =
            pk != ck ? pk < ck : (pw != cw ? pw > cw : prev < id);
        if (!ordered) {
          return Status::InvalidArgument(
              "score shape ids are not in shape order for shape " +
              std::to_string(snapshot.shape));
        }
      }
      if (snapshot.prefix_mass[i + 1] !=
          snapshot.prefix_mass[i] + triples[id].count) {
        return Status::InvalidArgument(
            "score shape prefix masses do not match triple counts");
      }
    }
  }
  ShapeIndex& shaped = (*shapes_)[snapshot.shape];
  if (shaped.built.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("score shape restored twice: " +
                                      std::to_string(snapshot.shape));
  }
  std::call_once(shaped.once, [&shaped, &snapshot]() {
    shaped.ids = std::move(snapshot.ids);
    shaped.prefix_mass = std::move(snapshot.prefix_mass);
    shaped.built.store(true, std::memory_order_release);
  });
  if (!shaped.built.load(std::memory_order_acquire)) {
    // The once-flag had been consumed without publishing (unreachable in
    // the single-threaded load path; defensive).
    return Status::Internal("score shape once-flag already consumed");
  }
  return Status::Ok();
}

ScoreOrderIndex::List ScoreOrderIndex::Range(std::span<const Triple> triples,
                                             Shape shape, TermId first,
                                             TermId second) const {
  const ShapeIndex& shaped = Shaped(triples, shape);
  const std::span<const TripleId> ids = shaped.ids.span();
  // Bound slots form the primary sort key; within a block the order is
  // by weight, which both search keys ignore (b spans the whole block
  // when `second` is a wildcard).
  Key lo{first, second == kNullTerm ? 0 : second};
  Key hi{first, second == kNullTerm ? UINT32_MAX : second};
  auto begin = std::lower_bound(
      ids.begin(), ids.end(), lo, [shape, &triples](TripleId id, const Key& k) {
        return KeyFor(shape, triples[id]) < k;
      });
  auto end = std::upper_bound(
      begin, ids.end(), hi, [shape, &triples](const Key& k, TripleId id) {
        return k < KeyFor(shape, triples[id]);
      });
  size_t b_idx = static_cast<size_t>(begin - ids.begin());
  size_t e_idx = static_cast<size_t>(end - ids.begin());
  const std::span<const uint64_t> mass = shaped.prefix_mass.span();
  return {std::span<const TripleId>(ids.data() + b_idx, e_idx - b_idx),
          mass[e_idx] - mass[b_idx]};
}

ScoreOrderIndex::List ScoreOrderIndex::Lookup(std::span<const Triple> triples,
                                              TermId s, TermId p,
                                              TermId o) const {
  if (triples.empty() || shapes_ == nullptr) return {};
  const bool bs = s != kNullTerm, bp = p != kNullTerm, bo = o != kNullTerm;
  TRINIT_CHECK(!(bs && bp && bo));  // exact lookups use TripleStore::Match
  if (bs) {
    if (bp) return Range(triples, kSP, s, p);
    if (bo) return Range(triples, kSO, s, o);
    return Range(triples, kS, s, kNullTerm);
  }
  if (bp) {
    if (bo) return Range(triples, kPO, p, o);
    return Range(triples, kP, p, kNullTerm);
  }
  if (bo) return Range(triples, kO, o, kNullTerm);
  const ShapeIndex& all = Shaped(triples, kAll);
  return {std::span<const TripleId>(all.ids.data(), all.ids.size()),
          all.prefix_mass.back()};
}

}  // namespace trinit::rdf
