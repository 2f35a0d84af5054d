#include "storage/snapshot.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rdf/graph_stats.h"
#include "rdf/triple_store.h"
#include "storage/mapped_file.h"
#include "storage/varint.h"
#include "util/hash.h"
#include "util/owned_span.h"

namespace trinit::storage {
namespace {

// ------------------------------------------------------------- layout

// Section ids. Every section is present exactly once; the reader
// rejects files missing any of them.
enum SectionId : uint32_t {
  kMeta = 1,
  kDictionary = 2,
  kTriples = 3,
  kPermutations = 4,
  kScoreShapes = 5,
  kGraphStats = 6,
  kProvenance = 7,
  kRules = 8,
};
constexpr uint32_t kNumSections = 8;

// Written after the magic; a big-endian reader sees it byte-swapped and
// rejects the file instead of mis-decoding every integer. It also
// guards the raw-section views: records are only aliased in place on a
// machine whose byte order matches the writer's.
constexpr uint32_t kEndianTag = 0x01020304u;

constexpr size_t kHeaderBytes = 8 + 4 + 4 + 8 + 4 + 4;  // 32
constexpr size_t kTableEntryBytes = 4 + 4 + 8 + 8 + 8;  // 32

// The raw TRIPLES section is viewed in place as `rdf::Triple` records;
// these assert the in-memory layout matches the wire layout (s, p, o,
// confidence-bits, count, source — 24 bytes).
static_assert(sizeof(rdf::Triple) == 24);
static_assert(std::is_trivially_copyable_v<rdf::Triple>);
static_assert(offsetof(rdf::Triple, s) == 0);
static_assert(offsetof(rdf::Triple, p) == 4);
static_assert(offsetof(rdf::Triple, o) == 8);
static_assert(offsetof(rdf::Triple, confidence) == 12);
static_assert(offsetof(rdf::Triple, count) == 16);
static_assert(offsetof(rdf::Triple, source) == 20);

// Likewise for the STATS (s, o) pair arrays.
using ArgPair = std::pair<rdf::TermId, rdf::TermId>;
static_assert(sizeof(ArgPair) == 8);
static_assert(std::is_standard_layout_v<ArgPair>);
static_assert(offsetof(ArgPair, first) == 0);
static_assert(offsetof(ArgPair, second) == 4);

// --------------------------------------------------------- encoding

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void PutU32(std::string* out, uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out->append(b, 4);
}
void PutU64(std::string* out, uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out->append(b, 8);
}
void PutF32(std::string* out, float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, 4);
  PutU32(out, bits);
}
void PutF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutU64(out, bits);
}
void PutStr(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}
// Zero-pads a section payload to the next 8-byte boundary, keeping
// every u64 field of the *next* record 8-aligned relative to the
// (8-aligned) section start — the precondition for viewing arrays in
// place.
void PadTo8(std::string* out) {
  while (out->size() % 8 != 0) out->push_back('\0');
}

// Little-endian loads at section positions, for the raw-section view
// walkers (the decoded sections go through Cursor). Callers
// bounds-check.
uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// Bounds-checked forward reader over one section payload. Every
/// accessor fails (returns false) instead of reading past the end, so
/// hostile bytes can at worst produce a typed error, never UB.
class Cursor {
 public:
  Cursor(const char* data, size_t size) : data_(data), size_(size) {}

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

  bool ReadU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (remaining() < 4) return false;
    std::memcpy(v, data_ + pos_, 4);
    pos_ += 4;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    if (remaining() < 8) return false;
    std::memcpy(v, data_ + pos_, 8);
    pos_ += 8;
    return true;
  }
  bool ReadF32(float* v) {
    uint32_t bits;
    if (!ReadU32(&bits)) return false;
    std::memcpy(v, &bits, 4);
    return true;
  }
  bool ReadF64(double* v) {
    uint64_t bits;
    if (!ReadU64(&bits)) return false;
    std::memcpy(v, &bits, 8);
    return true;
  }
  bool ReadStr(std::string* v) {
    uint32_t len;
    if (!ReadU32(&len) || remaining() < len) return false;
    v->assign(data_ + pos_, len);
    pos_ += len;
    return true;
  }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

Status Corrupt(const std::string& what) {
  return Status::ParseError("snapshot corrupt: " + what);
}

/// One parsed section-table entry.
struct SectionRef {
  uint64_t offset = 0;
  uint64_t length = 0;
  uint64_t checksum = 0;
  SectionCodec codec = SectionCodec::kRaw;
};

/// Aliases `count` records of T starting at `offset` within `section`.
/// Bounds are the caller's job (walkers check before advancing); the
/// runtime alignment check is the last line of defense for a hostile
/// offset table — misalignment is corruption, never UB.
template <typename T>
bool MakeView(std::span<const char> section, uint64_t offset, uint64_t count,
              std::span<const T>* out) {
  const char* p = section.data() + offset;
  if (reinterpret_cast<uintptr_t>(p) % alignof(T) != 0) return false;
  *out = std::span<const T>(reinterpret_cast<const T*>(p),
                            static_cast<size_t>(count));
  return true;
}

/// Reads a zigzag delta whose magnitude must fit the 32-bit id space;
/// bounding it here keeps the running accumulators far from signed
/// overflow on hostile input.
bool GetSmallZigzag(const char* data, size_t size, size_t* pos, int64_t* d) {
  uint64_t raw;
  if (!GetVarint(data, size, pos, &raw)) return false;
  if (raw > (uint64_t{1} << 33)) return false;
  *d = ZigzagDecode(raw);
  return true;
}

// ----------------------------------------------------- section writers

std::string EncodeMeta(const xkg::Xkg& xkg, const relax::RuleSet& rules,
                       uint64_t prov_records) {
  std::string out;
  PutU64(&out, xkg.kg_triple_count());
  PutU64(&out, xkg.dict().size());
  PutU64(&out, xkg.store().size());
  PutU64(&out, rules.size());
  // The PROV record count lives in META so a trusted mapped load can
  // report it without touching the (deferred) PROV section.
  PutU64(&out, prov_records);
  return out;
}

std::string EncodeDictionary(const rdf::Dictionary& dict) {
  std::string out;
  PutU64(&out, dict.size());
  dict.ForEach([&](rdf::TermId id) {
    PutU8(&out, static_cast<uint8_t>(dict.kind(id)));
    PutStr(&out, dict.label(id));
  });
  return out;
}

std::string EncodeTriples(const rdf::TripleStore& store) {
  std::string out;
  PutU64(&out, store.size());
  for (const rdf::Triple& t : store.triples()) {
    PutU32(&out, t.s);
    PutU32(&out, t.p);
    PutU32(&out, t.o);
    PutF32(&out, t.confidence);
    PutU32(&out, t.count);
    PutU32(&out, t.source);
  }
  return out;
}

// Triples are SPO-sorted, so `s` is nondecreasing (plain varint delta)
// while `p`/`o` jitter around their previous values (zigzag). The
// confidence delta is taken on the float's bit pattern — runs of equal
// confidence (the common case) cost one byte.
std::string EncodeTriplesVarint(const rdf::TripleStore& store) {
  std::string out;
  PutVarint(&out, store.size());
  uint32_t ps = 0, pp = 0, po = 0, pc = 0;
  for (const rdf::Triple& t : store.triples()) {
    uint32_t bits;
    std::memcpy(&bits, &t.confidence, 4);
    PutVarint(&out, t.s - ps);
    PutZigzag(&out, static_cast<int64_t>(t.p) - pp);
    PutZigzag(&out, static_cast<int64_t>(t.o) - po);
    PutZigzag(&out, static_cast<int64_t>(bits) - pc);
    PutVarint(&out, t.count);
    PutVarint(&out, t.source);
    ps = t.s;
    pp = t.p;
    po = t.o;
    pc = bits;
  }
  return out;
}

// u32 num + u32 reserved, per perm u64 n + ids, zero-padded to 8 so
// every array is viewable in place.
std::string EncodePermutationsRaw(const rdf::TripleStore& store) {
  std::string out;
  PutU32(&out,
         static_cast<uint32_t>(rdf::TripleStore::kNumIndexPermutations));
  PutU32(&out, 0);
  for (size_t i = 0; i < rdf::TripleStore::kNumIndexPermutations; ++i) {
    // Zero-copy: the span aliases the store's own array.
    std::span<const rdf::TripleId> perm = store.IndexPermutation(i);
    PutU64(&out, perm.size());
    for (rdf::TripleId id : perm) PutU32(&out, id);
    PadTo8(&out);
  }
  return out;
}

std::string EncodePermutationsVarint(const rdf::TripleStore& store) {
  std::string out;
  PutVarint(&out, rdf::TripleStore::kNumIndexPermutations);
  for (size_t i = 0; i < rdf::TripleStore::kNumIndexPermutations; ++i) {
    std::span<const rdf::TripleId> perm = store.IndexPermutation(i);
    PutVarint(&out, perm.size());
    int64_t prev = 0;
    for (rdf::TripleId id : perm) {
      PutZigzag(&out, static_cast<int64_t>(id) - prev);
      prev = id;
    }
  }
  return out;
}

// u32 num + u32 reserved, per shape u32 shape + u32 reserved + u64 n +
// ids + pad + (n+1) u64 masses, viewable.
std::string EncodeScoreShapesRaw(const rdf::TripleStore& store) {
  std::string out;
  std::vector<rdf::ScoreOrderIndex::ShapeView> shapes =
      store.BuiltScoreShapes();
  PutU32(&out, static_cast<uint32_t>(shapes.size()));
  PutU32(&out, 0);
  for (const rdf::ScoreOrderIndex::ShapeView& shape : shapes) {
    PutU32(&out, shape.shape);
    PutU32(&out, 0);
    PutU64(&out, shape.ids.size());
    for (rdf::TripleId id : shape.ids) PutU32(&out, id);
    PadTo8(&out);
    for (uint64_t mass : shape.prefix_mass) PutU64(&out, mass);
  }
  return out;
}

std::string EncodeScoreShapesVarint(const rdf::TripleStore& store) {
  std::string out;
  std::vector<rdf::ScoreOrderIndex::ShapeView> shapes =
      store.BuiltScoreShapes();
  PutVarint(&out, shapes.size());
  for (const rdf::ScoreOrderIndex::ShapeView& shape : shapes) {
    PutVarint(&out, shape.shape);
    PutVarint(&out, shape.ids.size());
    int64_t prev = 0;
    for (rdf::TripleId id : shape.ids) {
      PutZigzag(&out, static_cast<int64_t>(id) - prev);
      prev = id;
    }
    // Prefix masses are nondecreasing by construction: plain deltas.
    uint64_t prev_mass = 0;
    for (uint64_t mass : shape.prefix_mass) {
      PutVarint(&out, mass - prev_mass);
      prev_mass = mass;
    }
  }
  return out;
}

std::string EncodeGraphStatsRaw(const rdf::GraphStats& stats) {
  std::string out;
  PutU64(&out, stats.predicates().size());
  for (rdf::TermId p : stats.predicates()) {
    const rdf::GraphStats::PredicateStats* ps = stats.ForPredicate(p);
    PutU32(&out, p);
    PutU32(&out, ps->triple_count);
    PutU64(&out, ps->evidence_count);
    PutU32(&out, ps->distinct_subjects);
    PutU32(&out, ps->distinct_objects);
    const auto& args = stats.Args(p);
    PutU64(&out, args.size());
    for (const auto& [s, o] : args) {
      PutU32(&out, s);
      PutU32(&out, o);
    }
  }
  return out;
}

// Predicates are strictly ascending; each predicate's (s,o) pairs are
// sorted lexicographically, so `first` takes plain varint deltas and
// `second` zigzag deltas.
std::string EncodeGraphStatsVarint(const rdf::GraphStats& stats) {
  std::string out;
  PutVarint(&out, stats.predicates().size());
  uint64_t prev_p = 0;
  for (rdf::TermId p : stats.predicates()) {
    const rdf::GraphStats::PredicateStats* ps = stats.ForPredicate(p);
    PutVarint(&out, p - prev_p);
    prev_p = p;
    PutVarint(&out, ps->triple_count);
    PutVarint(&out, ps->evidence_count);
    PutVarint(&out, ps->distinct_subjects);
    PutVarint(&out, ps->distinct_objects);
    const auto& args = stats.Args(p);
    PutVarint(&out, args.size());
    uint64_t prev_first = 0;
    int64_t prev_second = 0;
    for (const auto& [s, o] : args) {
      PutVarint(&out, s - prev_first);
      PutZigzag(&out, static_cast<int64_t>(o) - prev_second);
      prev_first = s;
      prev_second = o;
    }
  }
  return out;
}

std::string EncodeProvenanceRaw(const xkg::Xkg& xkg, uint64_t* records_out) {
  std::string out;
  std::string body;
  uint64_t entries = 0;
  for (rdf::TripleId id = 0; id < xkg.store().size(); ++id) {
    const std::vector<xkg::Provenance>& records = xkg.ProvenanceFor(id);
    if (records.empty()) continue;
    ++entries;
    PutU32(&body, id);
    PutU32(&body, static_cast<uint32_t>(records.size()));
    for (const xkg::Provenance& prov : records) {
      PutU32(&body, prov.doc_id);
      PutU32(&body, prov.sentence_idx);
      PutF64(&body, prov.extraction_confidence);
      PutStr(&body, prov.sentence);
      ++*records_out;
    }
  }
  PutU64(&out, entries);
  out += body;
  return out;
}

// PROV dominates snapshot bytes and its cost is sentence text, which
// plain delta coding cannot touch. The varint codec therefore
// deduplicates sentences into a sorted front-coded table (shared
// prefix length + suffix) and stores per-record sentence *references*;
// numeric fields take varints, confidence as a zigzag wraparound delta
// of the f64 bit pattern (runs of equal confidence cost one byte).
std::string EncodeProvenanceVarint(const xkg::Xkg& xkg,
                                   uint64_t* records_out) {
  struct Entry {
    rdf::TripleId id;
    const std::vector<xkg::Provenance>* records;
  };
  std::vector<Entry> entries;
  std::vector<std::string_view> sentences;
  for (rdf::TripleId id = 0; id < xkg.store().size(); ++id) {
    const std::vector<xkg::Provenance>& records = xkg.ProvenanceFor(id);
    if (records.empty()) continue;
    entries.push_back({id, &records});
    for (const xkg::Provenance& prov : records) {
      sentences.push_back(prov.sentence);
    }
  }
  std::sort(sentences.begin(), sentences.end());
  sentences.erase(std::unique(sentences.begin(), sentences.end()),
                  sentences.end());
  std::unordered_map<std::string_view, uint64_t> sentence_index;
  sentence_index.reserve(sentences.size());
  for (uint64_t i = 0; i < sentences.size(); ++i) {
    sentence_index.emplace(sentences[i], i);
  }

  std::string out;
  PutVarint(&out, entries.size());
  PutVarint(&out, sentences.size());
  std::string_view prev;
  for (std::string_view s : sentences) {
    size_t lcp = 0;
    const size_t max = std::min(prev.size(), s.size());
    while (lcp < max && prev[lcp] == s[lcp]) ++lcp;
    PutVarint(&out, lcp);
    PutVarint(&out, s.size() - lcp);
    out.append(s.substr(lcp));
    prev = s;
  }
  uint64_t prev_id_plus1 = 0;
  uint64_t prev_bits = 0;
  for (const Entry& e : entries) {
    // Entry ids are strictly ascending: delta of (id + 1) is >= 1, and
    // the decoder rejects 0 (a duplicate) structurally.
    PutVarint(&out, uint64_t{e.id} + 1 - prev_id_plus1);
    prev_id_plus1 = uint64_t{e.id} + 1;
    PutVarint(&out, e.records->size());
    for (const xkg::Provenance& prov : *e.records) {
      uint64_t bits;
      std::memcpy(&bits, &prov.extraction_confidence, 8);
      PutVarint(&out, prov.doc_id);
      PutVarint(&out, prov.sentence_idx);
      PutZigzag(&out, static_cast<int64_t>(bits - prev_bits));
      prev_bits = bits;
      PutVarint(&out, sentence_index.at(prov.sentence));
      ++*records_out;
    }
  }
  return out;
}

void EncodeTerm(std::string* out, const query::Term& term) {
  PutU8(out, static_cast<uint8_t>(term.kind));
  PutStr(out, term.text);  // ids are cache; re-resolved after load
}

std::string EncodeRules(const relax::RuleSet& rules) {
  std::string out;
  PutU64(&out, rules.size());
  for (const relax::Rule& rule : rules.rules()) {
    PutStr(&out, rule.name);
    PutU8(&out, static_cast<uint8_t>(rule.kind));
    PutF64(&out, rule.weight);
    for (const std::vector<query::TriplePattern>* side :
         {&rule.lhs, &rule.rhs}) {
      PutU32(&out, static_cast<uint32_t>(side->size()));
      for (const query::TriplePattern& pattern : *side) {
        EncodeTerm(&out, pattern.s);
        EncodeTerm(&out, pattern.p);
        EncodeTerm(&out, pattern.o);
      }
    }
  }
  return out;
}

// ----------------------------------------------------- section readers

Status DecodeDictionary(Cursor* c, rdf::Dictionary* dict) {
  uint64_t count;
  if (!c->ReadU64(&count)) return Corrupt("dictionary count");
  for (uint64_t i = 0; i < count; ++i) {
    uint8_t kind;
    std::string label;
    if (!c->ReadU8(&kind) || !c->ReadStr(&label)) {
      return Corrupt("dictionary entry " + std::to_string(i));
    }
    if (kind > static_cast<uint8_t>(rdf::TermKind::kLiteral)) {
      return Corrupt("dictionary term kind " + std::to_string(kind));
    }
    // Interning in id order reproduces the original ids; a duplicate
    // (kind, label) pair collapses and breaks the sequence — corrupt.
    rdf::TermId id = dict->Intern(static_cast<rdf::TermKind>(kind), label);
    if (id != static_cast<rdf::TermId>(i + 1)) {
      return Corrupt("duplicate dictionary entry '" + label + "'");
    }
  }
  if (!c->AtEnd()) return Corrupt("trailing bytes after dictionary");
  return Status::Ok();
}

Status DecodeTriplesVarint(std::span<const char> d,
                           std::vector<rdf::Triple>* triples) {
  const char* data = d.data();
  const size_t size = d.size();
  size_t pos = 0;
  uint64_t count;
  if (!GetVarint(data, size, &pos, &count)) return Corrupt("triple count");
  // Each triple is at least 6 varint bytes; reject a hostile count
  // before allocating.
  if ((size - pos) / 6 < count) return Corrupt("triple section short");
  triples->resize(count);
  uint64_t ps = 0;
  int64_t pp = 0, po = 0, pc = 0;
  for (uint64_t i = 0; i < count; ++i) {
    rdf::Triple& t = (*triples)[i];
    uint64_t ds, cnt, src;
    int64_t dp, dobj, dc;
    if (!GetVarint(data, size, &pos, &ds) ||
        !GetSmallZigzag(data, size, &pos, &dp) ||
        !GetSmallZigzag(data, size, &pos, &dobj) ||
        !GetSmallZigzag(data, size, &pos, &dc) ||
        !GetVarint(data, size, &pos, &cnt) ||
        !GetVarint(data, size, &pos, &src) || ds > UINT32_MAX) {
      return Corrupt("triple " + std::to_string(i));
    }
    ps += ds;
    pp += dp;
    po += dobj;
    pc += dc;
    if (ps > UINT32_MAX || pp < 0 || pp > UINT32_MAX || po < 0 ||
        po > UINT32_MAX || pc < 0 || pc > UINT32_MAX || cnt > UINT32_MAX ||
        src > UINT32_MAX) {
      return Corrupt("triple field out of range");
    }
    t.s = static_cast<uint32_t>(ps);
    t.p = static_cast<uint32_t>(pp);
    t.o = static_cast<uint32_t>(po);
    const uint32_t bits = static_cast<uint32_t>(pc);
    std::memcpy(&t.confidence, &bits, 4);
    t.count = static_cast<uint32_t>(cnt);
    t.source = static_cast<uint32_t>(src);
  }
  if (pos != size) return Corrupt("trailing bytes after triples");
  return Status::Ok();
}

/// Raw TRIPLES: the 24-byte records, viewed in place.
Status LoadTriplesRaw(std::span<const char> d,
                      util::OwnedSpan<rdf::Triple>* out, size_t* framing) {
  if (d.size() < 8) return Corrupt("triple count");
  const uint64_t count = LoadU64(d.data());
  if ((d.size() - 8) / 24 != count || (d.size() - 8) % 24 != 0) {
    return Corrupt("triple section size");
  }
  std::span<const rdf::Triple> t;
  if (!MakeView(d, 8, count, &t)) return Corrupt("misaligned triple records");
  *out = util::OwnedSpan<rdf::Triple>::View(t);
  *framing += 8;
  return Status::Ok();
}

/// Raw PERMS: walk the aligned layout, viewing each array in place.
Status LoadPermutationsRaw(std::span<const char> d,
                           rdf::TripleStore::IndexSnapshot* indexes,
                           size_t* framing) {
  const char* base = d.data();
  const uint64_t end = d.size();
  if (end < 8) return Corrupt("permutation header");
  const uint32_t num = LoadU32(base);
  const uint32_t reserved = LoadU32(base + 4);
  uint64_t pos = 8;
  if (reserved != 0) return Corrupt("permutation reserved word");
  if ((end - pos) / 8 < num) return Corrupt("permutation section short");
  indexes->perms.clear();
  indexes->perms.reserve(num);
  for (uint32_t p = 0; p < num; ++p) {
    if (end - pos < 8) return Corrupt("permutation size");
    const uint64_t n = LoadU64(base + pos);
    pos += 8;
    if ((end - pos) / 4 < n) return Corrupt("permutation " + std::to_string(p));
    std::span<const rdf::TripleId> ids;
    if (!MakeView(d, pos, n, &ids)) {
      return Corrupt("misaligned permutation array");
    }
    indexes->perms.push_back(util::OwnedSpan<rdf::TripleId>::View(ids));
    pos += n * 4;
    const uint64_t pad = (8 - pos % 8) % 8;
    if (end - pos < pad) return Corrupt("permutation padding");
    pos += pad;
  }
  if (pos != end) return Corrupt("trailing bytes after permutations");
  *framing += 8 + 8 * size_t{num};
  return Status::Ok();
}

Status DecodePermutationsVarint(std::span<const char> d,
                                rdf::TripleStore::IndexSnapshot* indexes) {
  const char* data = d.data();
  const size_t size = d.size();
  size_t pos = 0;
  uint64_t num;
  if (!GetVarint(data, size, &pos, &num)) return Corrupt("permutation count");
  if (size - pos < num) return Corrupt("permutation section short");
  indexes->perms.clear();
  indexes->perms.reserve(num);
  for (uint64_t p = 0; p < num; ++p) {
    uint64_t n;
    if (!GetVarint(data, size, &pos, &n)) return Corrupt("permutation size");
    if (size - pos < n) return Corrupt("permutation " + std::to_string(p));
    std::vector<rdf::TripleId> ids(n);
    int64_t prev = 0;
    for (uint64_t i = 0; i < n; ++i) {
      int64_t delta;
      if (!GetSmallZigzag(data, size, &pos, &delta)) {
        return Corrupt("permutation " + std::to_string(p));
      }
      prev += delta;
      if (prev < 0 || prev > UINT32_MAX) {
        return Corrupt("permutation id out of range");
      }
      ids[i] = static_cast<uint32_t>(prev);
    }
    indexes->perms.emplace_back(std::move(ids));
  }
  if (pos != size) return Corrupt("trailing bytes after permutations");
  return Status::Ok();
}

/// Raw SCORE: the PERMS walk per shape, over its id array and its
/// prefix masses.
Status LoadScoreShapesRaw(std::span<const char> d,
                          rdf::TripleStore::IndexSnapshot* indexes,
                          size_t* framing) {
  const char* base = d.data();
  const uint64_t end = d.size();
  if (end < 8) return Corrupt("score shape header");
  const uint32_t num = LoadU32(base);
  const uint32_t reserved = LoadU32(base + 4);
  uint64_t pos = 8;
  if (reserved != 0) return Corrupt("score shape reserved word");
  // Each shape carries at least a 16-byte header plus the zeroth
  // prefix mass.
  if ((end - pos) / 24 < num) return Corrupt("score shape section short");
  indexes->score_shapes.clear();
  indexes->score_shapes.resize(num);
  uint32_t seen_shapes = 0;
  for (uint32_t i = 0; i < num; ++i) {
    rdf::ScoreOrderIndex::ShapeSnapshot& shape = indexes->score_shapes[i];
    if (end - pos < 16) return Corrupt("score shape " + std::to_string(i));
    shape.shape = LoadU32(base + pos);
    const uint32_t rsvd = LoadU32(base + pos + 4);
    const uint64_t n = LoadU64(base + pos + 8);
    pos += 16;
    if (rsvd != 0) return Corrupt("score shape reserved word");
    if (shape.shape >= 32 || (seen_shapes & (1u << shape.shape)) != 0) {
      return Corrupt("duplicate or out-of-range score shape id " +
                     std::to_string(shape.shape));
    }
    seen_shapes |= 1u << shape.shape;
    if ((end - pos) / 4 < n) return Corrupt("score shape ids");
    std::span<const rdf::TripleId> ids;
    if (!MakeView(d, pos, n, &ids)) {
      return Corrupt("misaligned score shape ids");
    }
    shape.ids = util::OwnedSpan<rdf::TripleId>::View(ids);
    pos += n * 4;
    const uint64_t pad = (8 - pos % 8) % 8;
    if (end - pos < pad) return Corrupt("score shape padding");
    pos += pad;
    if ((end - pos) / 8 < n + 1) return Corrupt("score shape mass");
    std::span<const uint64_t> mass;
    if (!MakeView(d, pos, n + 1, &mass)) {
      return Corrupt("misaligned score shape mass");
    }
    shape.prefix_mass = util::OwnedSpan<uint64_t>::View(mass);
    pos += (n + 1) * 8;
  }
  if (pos != end) return Corrupt("trailing bytes after score shapes");
  *framing += 8 + 16 * size_t{num};
  return Status::Ok();
}

Status DecodeScoreShapesVarint(std::span<const char> d,
                               rdf::TripleStore::IndexSnapshot* indexes) {
  const char* data = d.data();
  const size_t size = d.size();
  size_t pos = 0;
  uint64_t num;
  if (!GetVarint(data, size, &pos, &num)) return Corrupt("score shape count");
  if (size - pos < num) return Corrupt("score shape section short");
  indexes->score_shapes.clear();
  indexes->score_shapes.resize(num);
  uint32_t seen_shapes = 0;
  for (uint64_t i = 0; i < num; ++i) {
    rdf::ScoreOrderIndex::ShapeSnapshot& shape = indexes->score_shapes[i];
    uint64_t shape_id, n;
    if (!GetVarint(data, size, &pos, &shape_id) ||
        !GetVarint(data, size, &pos, &n)) {
      return Corrupt("score shape " + std::to_string(i));
    }
    if (shape_id >= 32 || (seen_shapes & (1u << shape_id)) != 0) {
      return Corrupt("duplicate or out-of-range score shape id " +
                     std::to_string(shape_id));
    }
    seen_shapes |= 1u << shape_id;
    shape.shape = static_cast<uint32_t>(shape_id);
    if (size - pos < n) return Corrupt("score shape ids");
    std::vector<rdf::TripleId> ids(n);
    int64_t prev = 0;
    for (uint64_t j = 0; j < n; ++j) {
      int64_t delta;
      if (!GetSmallZigzag(data, size, &pos, &delta)) {
        return Corrupt("score shape ids");
      }
      prev += delta;
      if (prev < 0 || prev > UINT32_MAX) {
        return Corrupt("score shape id out of range");
      }
      ids[j] = static_cast<uint32_t>(prev);
    }
    std::vector<uint64_t> mass(n + 1);
    uint64_t prev_mass = 0;
    for (uint64_t j = 0; j <= n; ++j) {
      uint64_t delta;
      if (!GetVarint(data, size, &pos, &delta)) {
        return Corrupt("score shape mass");
      }
      if (delta > UINT64_MAX - prev_mass) {
        return Corrupt("score shape mass overflow");
      }
      prev_mass += delta;
      mass[j] = prev_mass;
    }
    shape.ids = std::move(ids);
    shape.prefix_mass = std::move(mass);
  }
  if (pos != size) return Corrupt("trailing bytes after score shapes");
  return Status::Ok();
}

/// Raw STATS: only the 32-byte per-predicate headers are walked
/// (counted as framing); each predicate's (s,o) pair array is viewed in
/// place.
Status LoadGraphStatsRaw(std::span<const char> d,
                         rdf::SnapshotValidation validation,
                         Result<rdf::GraphStats>* out, size_t* framing) {
  const char* base = d.data();
  const uint64_t end = d.size();
  if (end < 8) return Corrupt("graph-stats count");
  const uint64_t count = LoadU64(base);
  uint64_t pos = 8;
  if ((end - pos) / 32 < count) return Corrupt("graph-stats short");
  std::vector<rdf::TermId> predicates;
  predicates.reserve(count);
  std::unordered_map<rdf::TermId, rdf::GraphStats::PredicateStats> stats;
  std::unordered_map<rdf::TermId, rdf::GraphStats::ArgPairs> args;
  for (uint64_t i = 0; i < count; ++i) {
    if (end - pos < 32) return Corrupt("graph-stats predicate");
    const rdf::TermId p = LoadU32(base + pos);
    rdf::GraphStats::PredicateStats ps;
    ps.triple_count = LoadU32(base + pos + 4);
    ps.evidence_count = LoadU64(base + pos + 8);
    ps.distinct_subjects = LoadU32(base + pos + 16);
    ps.distinct_objects = LoadU32(base + pos + 20);
    const uint64_t argn = LoadU64(base + pos + 24);
    pos += 32;
    if ((end - pos) / 8 < argn) return Corrupt("graph-stats args short");
    std::span<const ArgPair> viewed;
    if (!MakeView(d, pos, argn, &viewed)) {
      return Corrupt("misaligned graph-stats args");
    }
    pos += argn * 8;
    if (stats.count(p) != 0) return Corrupt("duplicate graph-stats predicate");
    predicates.push_back(p);
    stats.emplace(p, ps);
    args.emplace(p, rdf::GraphStats::ArgPairs::View(viewed));
  }
  if (pos != end) return Corrupt("trailing bytes after graph stats");
  *framing += 8 + 32 * static_cast<size_t>(count);
  *out = rdf::GraphStats::FromSnapshot(std::move(predicates),
                                       std::move(stats), std::move(args),
                                       validation);
  return out->ok() ? Status::Ok() : out->status();
}

Status DecodeGraphStatsVarint(std::span<const char> d,
                              rdf::SnapshotValidation validation,
                              Result<rdf::GraphStats>* out) {
  const char* data = d.data();
  const size_t size = d.size();
  size_t pos = 0;
  uint64_t count;
  if (!GetVarint(data, size, &pos, &count)) return Corrupt("graph-stats count");
  // Each predicate costs at least 6 varint bytes.
  if ((size - pos) / 6 < count) return Corrupt("graph-stats short");
  std::vector<rdf::TermId> predicates;
  predicates.reserve(count);
  std::unordered_map<rdf::TermId, rdf::GraphStats::PredicateStats> stats;
  std::unordered_map<rdf::TermId, rdf::GraphStats::ArgPairs> args;
  uint64_t prev_p = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t dp, tc, ev, ds, dobj, argn;
    if (!GetVarint(data, size, &pos, &dp) ||
        !GetVarint(data, size, &pos, &tc) ||
        !GetVarint(data, size, &pos, &ev) ||
        !GetVarint(data, size, &pos, &ds) ||
        !GetVarint(data, size, &pos, &dobj) ||
        !GetVarint(data, size, &pos, &argn)) {
      return Corrupt("graph-stats predicate " + std::to_string(i));
    }
    // Predicates are strictly ascending: a zero delta is structurally
    // corrupt (and guarantees no duplicate map keys below).
    if (dp == 0 || dp > UINT32_MAX - prev_p || tc > UINT32_MAX ||
        ds > UINT32_MAX || dobj > UINT32_MAX) {
      return Corrupt("graph-stats field out of range");
    }
    prev_p += dp;
    const rdf::TermId p = static_cast<uint32_t>(prev_p);
    rdf::GraphStats::PredicateStats ps;
    ps.triple_count = static_cast<uint32_t>(tc);
    ps.evidence_count = ev;
    ps.distinct_subjects = static_cast<uint32_t>(ds);
    ps.distinct_objects = static_cast<uint32_t>(dobj);
    // Each pair costs at least 2 varint bytes.
    if ((size - pos) / 2 < argn) return Corrupt("graph-stats args short");
    std::vector<ArgPair> pairs(argn);
    uint64_t prev_first = 0;
    int64_t prev_second = 0;
    for (uint64_t j = 0; j < argn; ++j) {
      uint64_t df;
      int64_t dsec;
      if (!GetVarint(data, size, &pos, &df) ||
          !GetSmallZigzag(data, size, &pos, &dsec) ||
          df > UINT32_MAX - prev_first) {
        return Corrupt("graph-stats arg pair");
      }
      prev_first += df;
      prev_second += dsec;
      if (prev_second < 0 || prev_second > UINT32_MAX) {
        return Corrupt("graph-stats arg pair out of range");
      }
      pairs[j] = {static_cast<uint32_t>(prev_first),
                  static_cast<uint32_t>(prev_second)};
    }
    predicates.push_back(p);
    stats.emplace(p, ps);
    args.emplace(p, std::move(pairs));
  }
  if (pos != size) return Corrupt("trailing bytes after graph stats");
  *out = rdf::GraphStats::FromSnapshot(std::move(predicates),
                                       std::move(stats), std::move(args),
                                       validation);
  return out->ok() ? Status::Ok() : out->status();
}

Status DecodeProvenanceRaw(Cursor* c, xkg::Xkg::ProvenanceMap* prov,
                           size_t* records_out) {
  uint64_t entries;
  if (!c->ReadU64(&entries)) return Corrupt("provenance count");
  for (uint64_t i = 0; i < entries; ++i) {
    uint32_t triple_id, nrec;
    if (!c->ReadU32(&triple_id) || !c->ReadU32(&nrec) || nrec == 0) {
      return Corrupt("provenance entry " + std::to_string(i));
    }
    if (c->remaining() / 20 < nrec) return Corrupt("provenance short");
    if (prov->count(triple_id) != 0) {
      return Corrupt("duplicate provenance entry");
    }
    std::vector<xkg::Provenance>& records = (*prov)[triple_id];
    records.resize(nrec);
    for (uint32_t j = 0; j < nrec; ++j) {
      xkg::Provenance& p = records[j];
      if (!c->ReadU32(&p.doc_id) || !c->ReadU32(&p.sentence_idx) ||
          !c->ReadF64(&p.extraction_confidence) ||
          !c->ReadStr(&p.sentence)) {
        return Corrupt("provenance record");
      }
    }
    *records_out += nrec;
  }
  if (!c->AtEnd()) return Corrupt("trailing bytes after provenance");
  return Status::Ok();
}

Status DecodeProvenanceVarint(std::span<const char> d,
                              xkg::Xkg::ProvenanceMap* prov,
                              size_t* records_out) {
  const char* data = d.data();
  const size_t size = d.size();
  size_t pos = 0;
  uint64_t entries, uniq;
  if (!GetVarint(data, size, &pos, &entries) ||
      !GetVarint(data, size, &pos, &uniq)) {
    return Corrupt("provenance count");
  }
  // Each front-coded sentence costs at least 2 varint bytes.
  if ((size - pos) / 2 < uniq) return Corrupt("provenance sentence table");
  std::vector<std::string> sentences;
  sentences.reserve(uniq);
  std::string prev_sentence;
  for (uint64_t i = 0; i < uniq; ++i) {
    uint64_t lcp, suffix;
    if (!GetVarint(data, size, &pos, &lcp) ||
        !GetVarint(data, size, &pos, &suffix)) {
      return Corrupt("provenance sentence " + std::to_string(i));
    }
    if (lcp > prev_sentence.size() || suffix > size - pos) {
      return Corrupt("provenance sentence " + std::to_string(i));
    }
    std::string s = prev_sentence.substr(0, static_cast<size_t>(lcp));
    s.append(data + pos, static_cast<size_t>(suffix));
    pos += static_cast<size_t>(suffix);
    prev_sentence = s;
    sentences.push_back(std::move(s));
  }
  // Each entry costs at least 6 varint bytes (id delta, record count,
  // one 4-byte-minimum record).
  if ((size - pos) / 6 < entries) return Corrupt("provenance short");
  uint64_t prev_id_plus1 = 0;
  uint64_t prev_bits = 0;
  for (uint64_t i = 0; i < entries; ++i) {
    uint64_t did, nrec;
    if (!GetVarint(data, size, &pos, &did) ||
        !GetVarint(data, size, &pos, &nrec)) {
      return Corrupt("provenance entry " + std::to_string(i));
    }
    // Ids are strictly ascending (delta of id+1 is >= 1): a zero delta
    // is a duplicate, structurally corrupt.
    if (did == 0 || did > (uint64_t{1} << 32) - prev_id_plus1 || nrec == 0) {
      return Corrupt("provenance entry " + std::to_string(i));
    }
    prev_id_plus1 += did;
    const rdf::TripleId id = static_cast<uint32_t>(prev_id_plus1 - 1);
    if ((size - pos) / 4 < nrec) return Corrupt("provenance short");
    std::vector<xkg::Provenance>& records = (*prov)[id];
    records.resize(nrec);
    for (uint64_t j = 0; j < nrec; ++j) {
      xkg::Provenance& p = records[j];
      uint64_t doc, sidx, ref;
      int64_t dbits;
      if (!GetVarint(data, size, &pos, &doc) ||
          !GetVarint(data, size, &pos, &sidx) ||
          !GetZigzag(data, size, &pos, &dbits) ||
          !GetVarint(data, size, &pos, &ref) || doc > UINT32_MAX ||
          sidx > UINT32_MAX || ref >= sentences.size()) {
        return Corrupt("provenance record");
      }
      p.doc_id = static_cast<uint32_t>(doc);
      p.sentence_idx = static_cast<uint32_t>(sidx);
      // Confidence bits take wraparound deltas (unsigned arithmetic,
      // lossless for any pair of f64 bit patterns).
      prev_bits += static_cast<uint64_t>(dbits);
      std::memcpy(&p.extraction_confidence, &prev_bits, 8);
      p.sentence = sentences[ref];
    }
    *records_out += nrec;
  }
  if (pos != size) return Corrupt("trailing bytes after provenance");
  return Status::Ok();
}

Status DecodeProvenanceAny(std::span<const char> d, SectionCodec codec,
                           xkg::Xkg::ProvenanceMap* prov,
                           size_t* records_out) {
  if (codec == SectionCodec::kVarintDelta) {
    return DecodeProvenanceVarint(d, prov, records_out);
  }
  Cursor c(d.data(), d.size());
  return DecodeProvenanceRaw(&c, prov, records_out);
}

Status DecodeTerm(Cursor* c, query::Term* term) {
  uint8_t kind;
  if (!c->ReadU8(&kind) || !c->ReadStr(&term->text)) {
    return Corrupt("rule term");
  }
  if (kind > static_cast<uint8_t>(query::Term::Kind::kLiteral)) {
    return Corrupt("rule term kind " + std::to_string(kind));
  }
  term->kind = static_cast<query::Term::Kind>(kind);
  term->id = rdf::kNullTerm;  // re-resolved against the loaded dictionary
  return Status::Ok();
}

Status DecodeRules(Cursor* c, relax::RuleSet* rules) {
  uint64_t count;
  if (!c->ReadU64(&count)) return Corrupt("rule count");
  for (uint64_t i = 0; i < count; ++i) {
    relax::Rule rule;
    uint8_t kind;
    if (!c->ReadStr(&rule.name) || !c->ReadU8(&kind) ||
        !c->ReadF64(&rule.weight)) {
      return Corrupt("rule " + std::to_string(i));
    }
    if (kind > static_cast<uint8_t>(relax::RuleKind::kOperator)) {
      return Corrupt("rule kind " + std::to_string(kind));
    }
    rule.kind = static_cast<relax::RuleKind>(kind);
    for (std::vector<query::TriplePattern>* side : {&rule.lhs, &rule.rhs}) {
      uint32_t n;
      if (!c->ReadU32(&n)) return Corrupt("rule pattern count");
      if (c->remaining() / 15 < n) return Corrupt("rule patterns short");
      side->resize(n);
      for (query::TriplePattern& pattern : *side) {
        TRINIT_RETURN_IF_ERROR(DecodeTerm(c, &pattern.s));
        TRINIT_RETURN_IF_ERROR(DecodeTerm(c, &pattern.p));
        TRINIT_RETURN_IF_ERROR(DecodeTerm(c, &pattern.o));
      }
    }
    // Add() re-validates structure; a corrupt rule that decodes into an
    // invalid shape is rejected here with its own message.
    TRINIT_RETURN_IF_ERROR(rules->Add(std::move(rule)));
  }
  if (!c->AtEnd()) return Corrupt("trailing bytes after rules");
  return Status::Ok();
}

}  // namespace

// --------------------------------------------------------------- write

Status SnapshotWriter::Write(const xkg::Xkg& xkg, const relax::RuleSet& rules,
                             uint64_t generation, const std::string& path,
                             const WriteOptions& options) {
  // A trusted-mapped engine defers provenance decode; saving forces it
  // now and must not silently persist an empty map because that decode
  // failed.
  TRINIT_RETURN_IF_ERROR(xkg.provenance_status());

  const bool varint = options.codec == SectionCodec::kVarintDelta;
  const SectionCodec bulk = options.codec;
  const rdf::TripleStore& store = xkg.store();
  uint64_t prov_records = 0;
  std::string prov = varint ? EncodeProvenanceVarint(xkg, &prov_records)
                            : EncodeProvenanceRaw(xkg, &prov_records);

  // Index arrays are encoded straight from the store's own memory
  // (span views), so the transient cost of a save is one encoded copy
  // of the state, not an intermediate export on top of it.
  struct Section {
    uint32_t id;
    SectionCodec codec;
    std::string payload;
  };
  std::vector<Section> sections;
  sections.reserve(kNumSections);
  sections.push_back(
      {kMeta, SectionCodec::kRaw, EncodeMeta(xkg, rules, prov_records)});
  sections.push_back(
      {kDictionary, SectionCodec::kRaw, EncodeDictionary(xkg.dict())});
  sections.push_back(
      {kTriples, bulk,
       varint ? EncodeTriplesVarint(store) : EncodeTriples(store)});
  sections.push_back({kPermutations, bulk,
                      varint ? EncodePermutationsVarint(store)
                             : EncodePermutationsRaw(store)});
  sections.push_back({kScoreShapes, bulk,
                      varint ? EncodeScoreShapesVarint(store)
                             : EncodeScoreShapesRaw(store)});
  sections.push_back({kGraphStats, bulk,
                      varint ? EncodeGraphStatsVarint(xkg.stats())
                             : EncodeGraphStatsRaw(xkg.stats())});
  sections.push_back({kProvenance, bulk, std::move(prov)});
  sections.push_back({kRules, SectionCodec::kRaw, EncodeRules(rules)});

  // Header + table, then 8-aligned payloads — streamed section by
  // section so peak memory stays one copy of the encoded state, not
  // two.
  std::string head;
  head.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  PutU32(&head, kSnapshotVersion);
  PutU32(&head, kEndianTag);
  PutU64(&head, generation);
  PutU32(&head, kNumSections);
  // Header checksum (low 32 bits of FNV-1a over the 28 bytes above):
  // the generation field has no section covering it, and it must not
  // load silently wrong.
  PutU32(&head, static_cast<uint32_t>(Fnv1a64(head)));

  size_t offset = kHeaderBytes + kNumSections * kTableEntryBytes;
  for (const Section& sec : sections) {
    offset = (offset + 7) & ~size_t{7};
    PutU32(&head, sec.id);
    // Flag word: low byte is the section codec; the rest is reserved.
    PutU32(&head, static_cast<uint32_t>(sec.codec));
    PutU64(&head, offset);
    PutU64(&head, sec.payload.size());
    PutU64(&head, Fnv1a64(sec.payload));
    offset += sec.payload.size();
  }

  // Write to a sibling temp file and rename into place: a mid-write
  // failure (disk full, crash) must not destroy a previously good
  // snapshot at `path` — replicas rely on "serialize once, load many
  // times". The rename also means a *mapped* reader of the old file
  // keeps its pages; the file is never truncated in place under a
  // live mapping.
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open for write: " + tmp_path);
    out.write(head.data(), static_cast<std::streamsize>(head.size()));
    size_t written = head.size();
    for (const Section& sec : sections) {
      static constexpr char kPad[8] = {};
      const size_t pad = ((written + 7) & ~size_t{7}) - written;
      out.write(kPad, static_cast<std::streamsize>(pad));
      out.write(sec.payload.data(),
                static_cast<std::streamsize>(sec.payload.size()));
      written += pad + sec.payload.size();
    }
    out.flush();
    if (!out) {
      std::remove(tmp_path.c_str());
      return Status::IoError("write failed: " + tmp_path);
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IoError("cannot rename " + tmp_path + " to " + path);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------- read

Result<LoadedSnapshot> SnapshotReader::Read(const std::string& path,
                                            const ReadOptions& options) {
  // Acquire the bytes — the only thing the load mode decides. kMapped
  // maps the file where mmap works; kCopy, and a failed Map (which must
  // behave as on a platform without mmap), reads it once into an owned
  // u64 buffer, 8-aligned by its type so the 8-aligned section offsets
  // stay aligned in memory. Either way `backing` keeps the bytes alive
  // for every view taken over `file` below.
  std::shared_ptr<const void> backing;
  std::span<const char> file;
  bool mapped = false;
  if (options.mode == LoadMode::kMapped && MappedFile::Supported()) {
    auto m = MappedFile::Map(path);
    if (m.ok()) {
      auto mapping = std::make_shared<MappedFile>(std::move(m).value());
      file = mapping->bytes();
      backing = std::move(mapping);
      mapped = true;
    }
  }
  if (!mapped) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) return Status::IoError("cannot open: " + path);
    const std::streamsize size = in.tellg();
    if (size < 0) return Status::IoError("cannot size: " + path);
    in.seekg(0);
    auto words = std::make_shared<std::vector<uint64_t>>(
        (static_cast<size_t>(size) + 7) / 8);
    if (!in.read(reinterpret_cast<char*>(words->data()), size)) {
      return Status::IoError("read failed: " + path);
    }
    file = {reinterpret_cast<const char*>(words->data()),
            static_cast<size_t>(size)};
    backing = std::move(words);
  }

  // Header. Foreign files fail on the magic (InvalidArgument), any other
  // format version on the version (FailedPrecondition) — distinct codes
  // so callers can tell "not ours" from "ours, re-save it".
  if (file.size() < kHeaderBytes ||
      std::memcmp(file.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
          0) {
    return Status::InvalidArgument("not a TriniT snapshot: " + path);
  }
  // Cursor starts past the just-compared magic.
  Cursor header(file.data() + sizeof(kSnapshotMagic),
                file.size() - sizeof(kSnapshotMagic));
  uint32_t version, endian, section_count, header_crc;
  uint64_t generation;
  header.ReadU32(&version);
  header.ReadU32(&endian);
  header.ReadU64(&generation);
  header.ReadU32(&section_count);
  header.ReadU32(&header_crc);
  if (endian != kEndianTag) {
    return Status::InvalidArgument(
        "snapshot byte order does not match this machine");
  }
  if (version != kSnapshotVersion) {
    return Status::FailedPrecondition(
        "snapshot format version " + std::to_string(version) +
        "; this build reads only version " +
        std::to_string(kSnapshotVersion) + " (re-save from source)");
  }
  // The generation lives only in the header (no section checksum covers
  // it); verify the header's own checksum before trusting it.
  if (header_crc !=
      static_cast<uint32_t>(Fnv1a64({file.data(), kHeaderBytes - 4}))) {
    return Corrupt("header checksum mismatch");
  }
  if (section_count != kNumSections) {
    return Corrupt("expected " + std::to_string(kNumSections) +
                   " sections, header says " +
                   std::to_string(section_count));
  }
  if (file.size() < kHeaderBytes + kNumSections * kTableEntryBytes) {
    return Corrupt("truncated section table");
  }

  // Section table: bounds and codec sanity before any payload access.
  std::unordered_map<uint32_t, SectionRef> table;
  for (uint32_t i = 0; i < kNumSections; ++i) {
    uint32_t id = 0, flags = 0;
    SectionRef s;
    if (!header.ReadU32(&id) || !header.ReadU32(&flags) ||
        !header.ReadU64(&s.offset) || !header.ReadU64(&s.length) ||
        !header.ReadU64(&s.checksum)) {
      return Corrupt("truncated section table");
    }
    if (s.offset > file.size() || s.length > file.size() - s.offset) {
      return Corrupt("section " + std::to_string(id) +
                     " out of bounds (truncated file?)");
    }
    if (flags > 0xff) return Corrupt("reserved section flag bits set");
    if (flags > static_cast<uint32_t>(SectionCodec::kVarintDelta)) {
      return Status::FailedPrecondition(
          "section codec " + std::to_string(flags) +
          " not supported by this build (re-save from source)");
    }
    s.codec = static_cast<SectionCodec>(flags);
    if (s.codec != SectionCodec::kRaw &&
        (id == kMeta || id == kDictionary || id == kRules)) {
      return Corrupt("codec on an uncompressible section " +
                     std::to_string(id));
    }
    if (!table.emplace(id, s).second) {
      return Corrupt("duplicate section " + std::to_string(id));
    }
  }
  for (uint32_t id = kMeta; id <= kRules; ++id) {
    if (table.count(id) == 0) {
      return Corrupt("missing section " + std::to_string(id));
    }
  }
  auto span_for = [&](uint32_t id) {
    const SectionRef& s = table.at(id);
    return file.subspan(static_cast<size_t>(s.offset),
                        static_cast<size_t>(s.length));
  };
  auto cursor_for = [&](uint32_t id) {
    std::span<const char> d = span_for(id);
    return Cursor(d.data(), d.size());
  };

  // Trusted verification applies to mapped loads only: a copy load
  // always fully verifies.
  const bool trusted =
      mapped && options.verify == rdf::SnapshotValidation::kTrusted;
  const rdf::SnapshotValidation validation =
      trusted ? rdf::SnapshotValidation::kTrusted
              : rdf::SnapshotValidation::kFull;

  LoadReport report;
  report.bytes = file.size();
  report.mapped = mapped;
  size_t touched = kHeaderBytes + kNumSections * kTableEntryBytes;

  // Checksum pass. Full verification checksums everything (mapped or
  // not — identical guarantees). Trusted checksums only what it will
  // decode into memory anyway: META/DICT/RULES and varint sections.
  // Viewed raw sections and the deferred PROV section are skipped —
  // that is where the touched-bytes savings come from; PROV is
  // checksummed at deferred-decode time instead.
  for (const auto& [id, s] : table) {
    if (s.codec == SectionCodec::kRaw) {
      ++report.sections_raw;
    } else {
      ++report.sections_varint;
    }
    const bool deferred_prov = trusted && id == kProvenance;
    const bool fully_read =
        !trusted ||
        (!deferred_prov &&
         (id == kMeta || id == kDictionary || id == kRules ||
          s.codec == SectionCodec::kVarintDelta));
    if (fully_read) {
      if (Fnv1a64({file.data() + s.offset,
                   static_cast<size_t>(s.length)}) != s.checksum) {
        return Corrupt("checksum mismatch in section " + std::to_string(id));
      }
      touched += static_cast<size_t>(s.length);
    }
  }

  // Meta cross-checks let a truncation that happens to preserve section
  // framing still fail loudly.
  Cursor meta = cursor_for(kMeta);
  uint64_t kg_triples, dict_terms, triple_count, rule_count;
  uint64_t prov_records_meta;
  if (!meta.ReadU64(&kg_triples) || !meta.ReadU64(&dict_terms) ||
      !meta.ReadU64(&triple_count) || !meta.ReadU64(&rule_count) ||
      !meta.ReadU64(&prov_records_meta) || !meta.AtEnd()) {
    return Corrupt("meta section");
  }
  ++report.sections_decoded;  // META

  auto dict = std::make_unique<rdf::Dictionary>();
  Cursor dict_cursor = cursor_for(kDictionary);
  TRINIT_RETURN_IF_ERROR(DecodeDictionary(&dict_cursor, dict.get()));
  if (dict->size() != dict_terms) return Corrupt("dictionary count vs meta");
  report.terms = dict->size();
  ++report.sections_decoded;  // DICT (hash index rebuilt by Intern)

  // The four index sections: raw ones are views over `file`, varint
  // ones decode into owned memory.
  auto raw = [&](uint32_t id) {
    return table.at(id).codec == SectionCodec::kRaw;
  };
  for (uint32_t id : {kTriples, kPermutations, kScoreShapes, kGraphStats}) {
    ++(raw(id) ? report.sections_viewed : report.sections_decoded);
  }

  util::OwnedSpan<rdf::Triple> triples;
  if (raw(kTriples)) {
    TRINIT_RETURN_IF_ERROR(
        LoadTriplesRaw(span_for(kTriples), &triples, &touched));
  } else {
    std::vector<rdf::Triple> decoded;
    TRINIT_RETURN_IF_ERROR(DecodeTriplesVarint(span_for(kTriples), &decoded));
    triples = std::move(decoded);
  }
  if (triples.size() != triple_count) return Corrupt("triple count vs meta");
  report.triples = triples.size();

  rdf::TripleStore::IndexSnapshot indexes;
  TRINIT_RETURN_IF_ERROR(
      raw(kPermutations)
          ? LoadPermutationsRaw(span_for(kPermutations), &indexes, &touched)
          : DecodePermutationsVarint(span_for(kPermutations), &indexes));
  TRINIT_RETURN_IF_ERROR(
      raw(kScoreShapes)
          ? LoadScoreShapesRaw(span_for(kScoreShapes), &indexes, &touched)
          : DecodeScoreShapesVarint(span_for(kScoreShapes), &indexes));
  report.permutations_restored = indexes.perms.size();
  report.score_shapes_restored = indexes.score_shapes.size();

  Result<rdf::GraphStats> stats = Status::Internal("unset");
  TRINIT_RETURN_IF_ERROR(
      raw(kGraphStats)
          ? LoadGraphStatsRaw(span_for(kGraphStats), validation, &stats,
                              &touched)
          : DecodeGraphStatsVarint(span_for(kGraphStats), validation,
                                   &stats));

  xkg::Xkg::ProvenanceMap provenance;
  const bool defer_provenance = trusted;
  if (defer_provenance) {
    report.provenance_records = prov_records_meta;
    report.provenance_deferred = true;
    ++report.sections_viewed;
  } else {
    TRINIT_RETURN_IF_ERROR(DecodeProvenanceAny(
        span_for(kProvenance), table.at(kProvenance).codec, &provenance,
        &report.provenance_records));
    if (report.provenance_records != prov_records_meta) {
      return Corrupt("provenance record count vs meta");
    }
    ++report.sections_decoded;
  }

  TRINIT_ASSIGN_OR_RETURN(
      rdf::TripleStore store,
      rdf::TripleStore::FromSnapshot(std::move(triples), std::move(indexes),
                                     validation));

  // Resident estimate: owned index bytes plus the decoded side
  // structures (section lengths stand in for the dictionary and rules;
  // provenance is measured from the decoded map), plus the owned file
  // buffer of a copy load that views it. Mapped views contribute
  // nothing — their pages are shared and evictable.
  const bool keep_backing = report.sections_viewed > 0;
  size_t prov_resident = 0;
  for (const auto& [id, records] : provenance) {
    prov_resident += sizeof(id) + records.size() * sizeof(xkg::Provenance);
    for (const xkg::Provenance& p : records) prov_resident += p.sentence.size();
  }
  report.resident_bytes =
      store.resident_bytes() + stats.value().resident_bytes() +
      static_cast<size_t>(table.at(kDictionary).length) + prov_resident +
      static_cast<size_t>(table.at(kRules).length) +
      (keep_backing && !mapped ? file.size() : 0);

  Result<xkg::Xkg> loaded = Status::Internal("unset");
  if (defer_provenance) {
    const SectionRef prov_ref = table.at(kProvenance);
    loaded = xkg::Xkg::FromPartsLazyProvenance(
        std::move(dict), std::move(store), std::move(stats).value(),
        static_cast<size_t>(kg_triples),
        [backing, data = span_for(kProvenance),
         prov_ref]() -> Result<xkg::Xkg::ProvenanceMap> {
          // The open skipped this section entirely; give the deferred
          // decode the same checksum guarantee the eager path had.
          if (Fnv1a64({data.data(), data.size()}) != prov_ref.checksum) {
            return Corrupt("provenance checksum (deferred decode)");
          }
          xkg::Xkg::ProvenanceMap map;
          size_t records = 0;
          TRINIT_RETURN_IF_ERROR(
              DecodeProvenanceAny(data, prov_ref.codec, &map, &records));
          return map;
        });
  } else {
    loaded = xkg::Xkg::FromParts(std::move(dict), std::move(store),
                                 std::move(stats).value(),
                                 static_cast<size_t>(kg_triples),
                                 std::move(provenance));
  }
  if (!loaded.ok()) return loaded.status();
  xkg::Xkg xkg = std::move(loaded).value();
  // Index views (and the deferred PROV decode) alias the file bytes;
  // they must live exactly as long as this XKG. ExtendKg rebuilds into
  // owned vectors and drops the old XKG — copy-on-write for free. A
  // load that decoded every section views nothing, so its bytes are
  // released when the open returns.
  if (keep_backing) xkg.AttachBacking(backing);

  relax::RuleSet rules;
  Cursor rule_cursor = cursor_for(kRules);
  TRINIT_RETURN_IF_ERROR(DecodeRules(&rule_cursor, &rules));
  if (rules.size() != rule_count) return Corrupt("rule count vs meta");
  rules.ResolveAgainst(xkg.dict());
  report.rules = rules.size();
  ++report.sections_decoded;  // RULES

  report.bytes_touched = trusted ? touched : file.size();

  return LoadedSnapshot{std::move(xkg), std::move(rules), generation,
                        report};
}

}  // namespace trinit::storage
