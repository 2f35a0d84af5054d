// End-to-end XKG construction: synthetic world -> KG + text corpus ->
// Open IE extraction -> entity linking -> extended knowledge graph ->
// mined relaxation rules -> queries that only the extension can answer.
//
//   ./build/examples/openie_pipeline [num_persons]

#include <cstdio>
#include <cstdlib>

#include "core/trinit.h"
#include "synth/corpus_generator.h"
#include "util/string_util.h"

int main(int argc, char** argv) {
  using namespace trinit;

  synth::WorldSpec spec;
  spec.seed = 2016;  // the paper's year
  spec.num_persons = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 150;
  spec.num_universities = spec.num_persons / 8 + 3;
  spec.num_institutes = spec.num_persons / 15 + 3;
  spec.num_cities = spec.num_persons / 5 + 5;
  spec.num_countries = 6;
  spec.num_prizes = 6;
  spec.num_fields = 8;
  spec.predicates = synth::WorldSpec::DefaultPredicates();

  std::printf("== 1. Generating ground-truth world ==\n");
  synth::World world = synth::KgGenerator::Generate(spec);
  size_t held_out = 0;
  for (const synth::Fact& f : world.facts) held_out += !f.in_kg;
  std::printf("  %zu entities, %zu facts (%zu held out of the KG)\n",
              world.entities.size(), world.facts.size(), held_out);

  std::printf("== 2. Verbalizing the corpus ==\n");
  auto docs = synth::CorpusGenerator::Generate(world);
  std::printf("  %zu documents; sample: \"%.90s...\"\n", docs.size(),
              docs.front().text.c_str());

  std::printf("== 3-5. Open IE + linking + XKG + rule mining ==\n");
  core::Trinit::BuildReport report;
  auto engine = core::Trinit::FromWorld(world, {}, &report);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }
  std::printf("  corpus:     %zu docs, %zu sentences\n",
              report.corpus_documents, report.corpus_sentences);
  std::printf("  extractor:  %zu raw extractions\n", report.extractions);
  std::printf("  XKG:        %s KG triples + %s extraction triples\n",
              WithThousands(static_cast<long long>(report.kg_triples))
                  .c_str(),
              WithThousands(
                  static_cast<long long>(report.extraction_triples))
                  .c_str());
  std::printf("  rule miner: %zu relaxation rules (%zu synonym, %zu "
              "inversion, %zu expansion)\n",
              report.rules_mined,
              engine->rules().CountOfKind(relax::RuleKind::kSynonym),
              engine->rules().CountOfKind(relax::RuleKind::kInversion),
              engine->rules().CountOfKind(relax::RuleKind::kExpansion));

  std::printf("== 6. Querying a held-out fact ==\n");
  // Find a person whose prize fact was held out of the KG.
  size_t won_prize = world.PredicateIndex("wonPrize");
  const synth::Fact* target = nullptr;
  for (const synth::Fact& f : world.facts) {
    if (f.predicate == won_prize && !f.in_kg) {
      target = &f;
      break;
    }
  }
  if (target == nullptr) {
    std::printf("  (no held-out prize facts in this world)\n");
    return 0;
  }
  std::string query_text =
      world.entities[target->subject].name + " wonPrize ?x";
  std::printf("  query: %s\n", query_text.c_str());
  std::printf("  ground truth: %s\n",
              world.entities[target->object].name.c_str());

  auto response = engine->Execute(core::QueryRequest::Text(query_text, 3));
  if (!response.ok()) {
    std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
    return 1;
  }
  const topk::TopKResult& result = response->result();
  if (result.answers.empty()) {
    std::printf("  no answers (try a larger world)\n");
  }
  for (size_t i = 0; i < result.answers.size(); ++i) {
    std::printf("  #%zu %s\n", i + 1,
                engine->RenderAnswer(result, i).c_str());
  }
  if (!result.answers.empty()) {
    std::printf("\nBest answer explained:\n%s",
                engine->Explain(result, 0).ToString().c_str());
  }
  return 0;
}
