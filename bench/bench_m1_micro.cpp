// Exhibit M1 — substrate micro-benchmarks (google-benchmark): the
// dictionary, the 6-permutation triple store, the phrase index, the
// Open IE extractor, the leaf-stream drain and pattern-group join behind
// expansion rules, and the end-to-end per-query cost of the top-k
// processor on the paper world.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "openie/extractor.h"
#include "query/parser.h"
#include "synth/kg_generator.h"
#include "text/phrase_index.h"
#include "topk/relaxed_stream.h"
#include "util/random.h"

namespace {

using namespace trinit;

void BM_DictionaryIntern(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    rdf::Dictionary dict;
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      benchmark::DoNotOptimize(
          dict.InternResource("entity_" + std::to_string(i)));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DictionaryIntern)->Arg(1000)->Arg(10000);

void BM_DictionaryLookup(benchmark::State& state) {
  rdf::Dictionary dict;
  for (int i = 0; i < state.range(0); ++i) {
    dict.InternResource("entity_" + std::to_string(i));
  }
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dict.Find(
        rdf::TermKind::kResource,
        "entity_" + std::to_string(i++ % state.range(0))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DictionaryLookup)->Arg(10000);

rdf::TripleStore BuildRandomStore(size_t n, uint64_t seed) {
  Rng rng(seed);
  rdf::TripleStoreBuilder builder;
  for (size_t i = 0; i < n; ++i) {
    builder.Add(static_cast<rdf::TermId>(1 + rng.Uniform(n / 4 + 1)),
                static_cast<rdf::TermId>(1 + rng.Uniform(64)),
                static_cast<rdf::TermId>(1 + rng.Uniform(n / 4 + 1)));
  }
  auto r = builder.Build();
  if (!r.ok()) std::abort();
  return std::move(r).value();
}

void BM_TripleStoreBuild(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildRandomStore(static_cast<size_t>(state.range(0)), 42));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TripleStoreBuild)->Arg(10000)->Arg(100000);

void BM_TripleStoreMatchByPredicate(benchmark::State& state) {
  rdf::TripleStore store =
      BuildRandomStore(static_cast<size_t>(state.range(0)), 42);
  Rng rng(7);
  for (auto _ : state) {
    rdf::TermId p = static_cast<rdf::TermId>(1 + rng.Uniform(64));
    benchmark::DoNotOptimize(store.Match(rdf::kNullTerm, p, rdf::kNullTerm));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TripleStoreMatchByPredicate)->Arg(100000);

void BM_TripleStorePointLookup(benchmark::State& state) {
  rdf::TripleStore store =
      BuildRandomStore(static_cast<size_t>(state.range(0)), 42);
  Rng rng(9);
  for (auto _ : state) {
    const rdf::Triple& t = store.triple(
        static_cast<rdf::TripleId>(rng.Uniform(store.size())));
    benchmark::DoNotOptimize(store.Find(t.s, t.p, t.o));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TripleStorePointLookup)->Arg(100000);

void BM_PhraseIndexFindSimilar(benchmark::State& state) {
  rdf::Dictionary dict;
  Rng rng(5);
  const char* verbs[] = {"works", "lectured", "won", "born", "located"};
  const char* nouns[] = {"prize", "university", "institute", "city",
                         "award"};
  for (int i = 0; i < 5000; ++i) {
    dict.InternToken(std::string(verbs[rng.Uniform(5)]) + " at the " +
                     nouns[rng.Uniform(5)] + " " + std::to_string(i % 97));
  }
  text::PhraseIndex index = text::PhraseIndex::Build(dict);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.FindSimilar("won the prize", 0.3));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PhraseIndexFindSimilar);

void BM_OpenIeExtract(benchmark::State& state) {
  openie::Extractor extractor;
  const std::string sentence =
      "In 1921, Anna Keller won the Keller Prize for work on physics, "
      "according to several sources.";
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.ExtractSentence(sentence));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OpenIeExtract);

// The synthetic world the explore workload queries (38k triples) with
// its mined rules, and the mined expansion (bridge) rule whose
// right-hand side decodes the most index entries.
struct BridgeRhs {
  explicit BridgeRhs(core::Trinit e)
      : engine(std::move(e)), scorer(engine.xkg()) {}
  core::Trinit engine;
  scoring::LmScorer scorer;
  query::VarTable global_vars{std::vector<std::string>{"x", "y"}};
  topk::Alternative rhs;
};

const BridgeRhs& SynthBridgeRhs() {
  static const BridgeRhs* rhs = [] {
    auto engine = core::Trinit::FromWorld(
        synth::KgGenerator::Generate(synth::WorldSpec::Scaled(50000)));
    if (!engine.ok()) std::abort();
    auto* out = new BridgeRhs(std::move(engine).value());
    size_t most_decoded = 0;
    for (const relax::Rule& rule : out->engine.rules().rules()) {
      if (rule.kind != relax::RuleKind::kExpansion) continue;
      topk::Alternative alt{rule.rhs, rule.weight, {&rule}};
      topk::GroupStream group(out->engine.xkg(), out->scorer,
                              out->global_vars, alt, 0);
      if (group.DecodeStats().items_decoded > most_decoded) {
        most_decoded = group.DecodeStats().items_decoded;
        out->rhs = std::move(alt);
      }
    }
    if (most_decoded == 0) std::abort();  // no expansion rule mined
    return out;
  }();
  return *rhs;
}

// Opens and fully drains every member pattern of the bridge RHS into
// compact rows: the leaf half of a group build.
void BM_LeafStreamDrain(benchmark::State& state) {
  const BridgeRhs& b = SynthBridgeRhs();
  query::VarTable local(std::vector<std::string>{"x", "y", "z"});
  size_t rows = 0;
  for (auto _ : state) {
    for (const query::TriplePattern& pattern : b.rhs.patterns) {
      topk::LeafStream leaf(b.engine.xkg(), b.scorer, local, pattern, 0);
      std::vector<topk::LeafStream::Row> drained = leaf.DrainRows();
      rows += drained.size();
      benchmark::DoNotOptimize(drained.data());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows));
}
BENCHMARK(BM_LeafStreamDrain);

// Builds the bridge RHS group stream: drain every member, then the hash
// join on the shared variable and the score sort.
void BM_GroupStreamBuild(benchmark::State& state) {
  const BridgeRhs& b = SynthBridgeRhs();
  size_t decoded = 0;
  for (auto _ : state) {
    topk::GroupStream group(b.engine.xkg(), b.scorer, b.global_vars, b.rhs,
                            0);
    decoded += group.DecodeStats().items_decoded;
    benchmark::DoNotOptimize(group.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(decoded));
}
BENCHMARK(BM_GroupStreamBuild);

void BM_PaperWorldQuery(benchmark::State& state) {
  core::Trinit engine = bench::OpenPaperEngine();
  auto q = query::Parser::Parse(
      "SELECT ?x WHERE AlbertEinstein affiliation ?x ; ?x member "
      "IvyLeague",
      &engine.xkg().dict());
  if (!q.ok()) std::abort();
  const core::QueryRequest request = core::QueryRequest::Parsed(*q, 5);
  for (auto _ : state) {
    auto r = engine.Execute(request);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PaperWorldQuery);

}  // namespace

BENCHMARK_MAIN();
