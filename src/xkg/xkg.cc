#include "xkg/xkg.h"

#include <utility>

namespace trinit::xkg {

Result<Xkg> Xkg::FromParts(std::unique_ptr<rdf::Dictionary> dict,
                           rdf::TripleStore store, rdf::GraphStats stats,
                           size_t kg_triple_count, ProvenanceMap provenance) {
  if (dict == nullptr) {
    return Status::InvalidArgument("FromParts: null dictionary");
  }
  if (kg_triple_count > store.size()) {
    return Status::InvalidArgument("snapshot kg_triple_count " +
                                   std::to_string(kg_triple_count) +
                                   " exceeds triple count " +
                                   std::to_string(store.size()));
  }
  for (const rdf::Triple& t : store.triples()) {
    if (!dict->Contains(t.s) || !dict->Contains(t.p) || !dict->Contains(t.o)) {
      return Status::InvalidArgument(
          "snapshot triple references a term id outside the dictionary");
    }
  }
  for (const auto& [id, records] : provenance) {
    if (id >= store.size()) {
      return Status::InvalidArgument(
          "snapshot provenance references triple id out of range");
    }
    if (records.empty()) {
      return Status::InvalidArgument(
          "snapshot provenance entry with no records");
    }
  }
  Xkg xkg;
  xkg.dict_ = std::move(dict);
  xkg.store_ = std::move(store);
  xkg.stats_ = std::make_unique<rdf::GraphStats>(std::move(stats));
  xkg.phrase_index_ =
      std::make_unique<text::PhraseIndex>(text::PhraseIndex::Build(*xkg.dict_));
  xkg.provenance_ = std::move(provenance);
  xkg.kg_triple_count_ = kg_triple_count;
  return xkg;
}

Result<Xkg> Xkg::FromPartsLazyProvenance(
    std::unique_ptr<rdf::Dictionary> dict, rdf::TripleStore store,
    rdf::GraphStats stats, size_t kg_triple_count,
    std::function<Result<ProvenanceMap>()> loader) {
  if (loader == nullptr) {
    return Status::InvalidArgument("FromPartsLazyProvenance: null loader");
  }
  auto xkg = FromParts(std::move(dict), std::move(store), std::move(stats),
                       kg_triple_count, {});
  if (!xkg.ok()) return xkg;
  auto lazy = std::make_unique<LazyProvenance>();
  lazy->loader = std::move(loader);
  xkg.value().lazy_provenance_ = std::move(lazy);
  return xkg;
}

const Xkg::ProvenanceMap& Xkg::DecodedProvenance() const {
  if (lazy_provenance_ == nullptr) return provenance_;
  LazyProvenance* lazy = lazy_provenance_.get();
  std::call_once(lazy->once, [lazy] {
    auto decoded = lazy->loader();
    if (decoded.ok()) {
      lazy->map = std::move(decoded).value();
    } else {
      lazy->status = decoded.status();
    }
    lazy->loader = nullptr;  // release captured backing references
  });
  return lazy->map;
}

Status Xkg::provenance_status() const {
  DecodedProvenance();
  return lazy_provenance_ == nullptr ? Status::Ok() : lazy_provenance_->status;
}

const std::vector<Provenance>& Xkg::ProvenanceFor(rdf::TripleId id) const {
  const ProvenanceMap& map = DecodedProvenance();
  auto it = map.find(id);
  return it == map.end() ? empty_provenance_ : it->second;
}

std::string Xkg::RenderTriple(rdf::TripleId id) const {
  const rdf::Triple& t = store_.triple(id);
  return dict_->DebugLabel(t.s) + " --" + dict_->DebugLabel(t.p) + "--> " +
         dict_->DebugLabel(t.o);
}

}  // namespace trinit::xkg
