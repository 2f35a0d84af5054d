// Cross-module integration and failure-injection tests: the full
// world -> corpus -> Open IE -> XKG -> rules -> query pipeline under
// varying noise and degradation conditions, plus serialization
// round-trips of whole pipeline outputs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>

#include "core/trinit.h"
#include "eval/runner.h"
#include "query/parser.h"
#include "relax/paraphrase_operator.h"
#include "synth/corpus_generator.h"
#include "xkg/tsv_io.h"

namespace trinit {
namespace {

synth::WorldSpec Spec(uint64_t seed) {
  synth::WorldSpec spec;
  spec.seed = seed;
  spec.num_persons = 70;
  spec.num_universities = 9;
  spec.num_institutes = 5;
  spec.num_cities = 14;
  spec.num_countries = 4;
  spec.num_prizes = 4;
  spec.num_fields = 6;
  spec.predicates = synth::WorldSpec::DefaultPredicates();
  return spec;
}

TEST(EndToEndTest, XkgSurvivesTsvRoundTripWithIdenticalAnswers) {
  synth::World world = synth::KgGenerator::Generate(Spec(71));
  auto original = core::Trinit::FromWorld(world);
  ASSERT_TRUE(original.ok());

  std::string path =
      (std::filesystem::temp_directory_path() / "trinit_e2e_xkg.tsv")
          .string();
  ASSERT_TRUE(xkg::XkgTsv::Save(original->xkg(), path).ok());
  auto reloaded_xkg = xkg::XkgTsv::Load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(reloaded_xkg.ok()) << reloaded_xkg.status();
  EXPECT_EQ(reloaded_xkg->store().size(), original->xkg().store().size());
  EXPECT_EQ(reloaded_xkg->kg_triple_count(),
            original->xkg().kg_triple_count());

  auto reloaded = core::Trinit::Open(std::move(reloaded_xkg).value());
  ASSERT_TRUE(reloaded.ok());
  // Same mined rule inventory (mining is a pure function of the XKG).
  EXPECT_EQ(reloaded->rules().size(), original->rules().size());

  // Same answers for a handful of queries. Confidences round-trip at 6
  // decimals, which can swap exact ties, so compare answer *sets* and
  // allow the corresponding tolerance on scores.
  const auto& unis = world.OfClass(synth::EntityClass::kUniversity);
  for (size_t i = 0; i < 3 && i < unis.size(); ++i) {
    std::string text = "?x 'works at' " + world.entities[unis[i]].name;
    auto a = original->Execute(core::QueryRequest::Text(text, 5));
    auto b = reloaded->Execute(core::QueryRequest::Text(text, 5));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    const topk::TopKResult& ra = a->result();
    const topk::TopKResult& rb = b->result();
    ASSERT_EQ(ra.answers.size(), rb.answers.size()) << text;
    // Ties at the k-th score may resolve differently after reload
    // (dictionary ids change); compare scores rank-by-rank, and labels
    // only for answers strictly above the cutoff.
    double cutoff = ra.answers.empty() ? 0.0 : ra.answers.back().score;
    std::multiset<std::string> labels_a, labels_b;
    for (size_t r = 0; r < ra.answers.size(); ++r) {
      EXPECT_NEAR(ra.answers[r].score, rb.answers[r].score, 1e-4);
      if (ra.answers[r].score > cutoff + 1e-4) {
        labels_a.insert(original->RenderAnswer(ra, r));
      }
      if (rb.answers[r].score > cutoff + 1e-4) {
        labels_b.insert(reloaded->RenderAnswer(rb, r));
      }
    }
    EXPECT_EQ(labels_a, labels_b) << text;
  }
}

TEST(EndToEndTest, ExtractorNoiseDegradesButDoesNotBreak) {
  synth::World world = synth::KgGenerator::Generate(Spec(72));
  auto docs = synth::CorpusGenerator::Generate(world);

  // Failure injection: a sloppy extractor with rock-bottom confidence
  // floor and very permissive relation phrases.
  openie::Extractor::Options sloppy;
  sloppy.max_relation_tokens = 12;
  sloppy.base_confidence = 0.4;
  sloppy.min_confidence = 0.05;
  xkg::XkgBuilder builder;
  synth::KgGenerator::PopulateKg(world, &builder);
  openie::Pipeline pipeline(openie::Extractor(sloppy),
                            openie::Pipeline::LinkerForWorld(world));
  pipeline.Run(docs, &builder);
  auto noisy_xkg = builder.Build();
  ASSERT_TRUE(noisy_xkg.ok());

  auto engine = core::Trinit::Open(std::move(noisy_xkg).value());
  ASSERT_TRUE(engine.ok());
  // Queries still answer; scores remain finite and ordered.
  const auto& persons = world.OfClass(synth::EntityClass::kPerson);
  auto response = engine->Execute(core::QueryRequest::Text(
      world.entities[persons[0]].name + " ?p ?o", 10));
  ASSERT_TRUE(response.ok());
  const std::vector<topk::Answer>& answers = response->result().answers;
  double prev = 0.0;
  for (size_t i = 0; i < answers.size(); ++i) {
    EXPECT_TRUE(std::isfinite(answers[i].score));
    if (i > 0) EXPECT_LE(answers[i].score, prev + 1e-9);
    prev = answers[i].score;
  }
}

TEST(EndToEndTest, BrokenLinkerLeavesTokensNotCrashes) {
  synth::World world = synth::KgGenerator::Generate(Spec(73));
  auto docs = synth::CorpusGenerator::Generate(world);
  xkg::XkgBuilder builder;
  synth::KgGenerator::PopulateKg(world, &builder);
  // Failure injection: an empty linker (NED totally unavailable).
  openie::Pipeline pipeline{openie::Extractor(), openie::Linker()};
  openie::Pipeline::Stats stats = pipeline.Run(docs, &builder);
  EXPECT_EQ(stats.arguments_linked, 0u);
  EXPECT_GT(stats.arguments_token, 0u);
  auto xkg = builder.Build();
  ASSERT_TRUE(xkg.ok());
  // All extraction subjects/objects are token terms now; the XKG still
  // builds and token queries still work.
  auto engine = core::Trinit::Open(std::move(xkg).value());
  ASSERT_TRUE(engine.ok());
  auto result =
      engine->Execute(core::QueryRequest::Text("?x 'works at' ?y", 5));
  ASSERT_TRUE(result.ok());
}

TEST(EndToEndTest, ParaphraseOperatorLiftsRecallWithoutMining) {
  synth::World world = synth::KgGenerator::Generate(Spec(74));
  // Disable every miner: rules come only from the paraphrase repository.
  core::TrinitOptions options;
  options.mine_synonyms = false;
  options.mine_inversions = false;
  options.mine_expansions = false;
  auto engine = core::Trinit::FromWorld(world, options);
  ASSERT_TRUE(engine.ok());
  ASSERT_EQ(engine->rules().size(), 0u);

  // A held-out prize fact is unreachable without vocabulary translation.
  size_t pi = world.PredicateIndex("wonPrize");
  const synth::Fact* held = nullptr;
  for (const synth::Fact& f : world.facts) {
    if (f.predicate == pi && !f.in_kg) {
      held = &f;
      break;
    }
  }
  ASSERT_NE(held, nullptr);
  std::string text = world.entities[held->subject].name + " wonPrize ?x";
  auto before = engine->Execute(core::QueryRequest::Text(text, 5));
  ASSERT_TRUE(before.ok());

  auto op = relax::ParaphraseOperator::FromText(
      relax::ParaphraseOperator::BuiltinRepository());
  ASSERT_TRUE(op.ok());
  ASSERT_TRUE(engine->RunOperator(*op).ok());
  EXPECT_GT(engine->rules().size(), 0u);
  auto after = engine->Execute(core::QueryRequest::Text(text, 5));
  ASSERT_TRUE(after.ok());
  EXPECT_GE(after->result().answers.size(), before->result().answers.size());
}

TEST(EndToEndTest, DeterministicAcrossFullPipeline) {
  synth::World world = synth::KgGenerator::Generate(Spec(75));
  auto a = core::Trinit::FromWorld(world);
  auto b = core::Trinit::FromWorld(world);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->xkg().store().size(), b->xkg().store().size());
  EXPECT_EQ(a->rules().size(), b->rules().size());
  auto qa = a->Execute(core::QueryRequest::Text("?x 'was born in' ?y", 10));
  auto qb = b->Execute(core::QueryRequest::Text("?x 'was born in' ?y", 10));
  ASSERT_TRUE(qa.ok());
  ASSERT_TRUE(qb.ok());
  const std::vector<topk::Answer>& answers_a = qa->result().answers;
  const std::vector<topk::Answer>& answers_b = qb->result().answers;
  ASSERT_EQ(answers_a.size(), answers_b.size());
  for (size_t i = 0; i < answers_a.size(); ++i) {
    EXPECT_NEAR(answers_a[i].score, answers_b[i].score, 1e-12);
  }
}

}  // namespace
}  // namespace trinit
