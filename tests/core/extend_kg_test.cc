// Tests for dynamic KG extension (core::Trinit::ExtendKg) and the
// XkgBuilder::FromXkg reseeding path behind it.

#include <gtest/gtest.h>

#include "core/trinit.h"
#include "testing/paper_world.h"
#include "xkg/xkg_builder.h"

namespace trinit::core {
namespace {

TEST(FromXkgTest, ReseedPreservesEverything) {
  xkg::Xkg original = testing::BuildPaperXkg();
  xkg::XkgBuilder builder = xkg::XkgBuilder::FromXkg(original);
  auto rebuilt = builder.Build();
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt->store().size(), original.store().size());
  EXPECT_EQ(rebuilt->kg_triple_count(), original.kg_triple_count());
  EXPECT_EQ(rebuilt->extraction_triple_count(),
            original.extraction_triple_count());
  // Provenance carried over.
  const auto& dict = rebuilt->dict();
  rdf::TripleId id = rebuilt->store().Find(
      dict.Find(rdf::TermKind::kResource, "IAS"),
      dict.Find(rdf::TermKind::kToken, "housed in"),
      dict.Find(rdf::TermKind::kResource, "PrincetonUniversity"));
  ASSERT_NE(id, rdf::kInvalidTriple);
  EXPECT_EQ(rebuilt->ProvenanceFor(id).size(), 1u);
}

TEST(ExtendKgTest, NewFactsBecomeQueryable) {
  auto engine = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(engine.ok());
  auto before =
      engine->Execute(QueryRequest::Text("MarieCurie bornIn ?x", 5));
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->result().answers.empty());

  ASSERT_TRUE(engine
                  ->ExtendKg("MarieCurie bornIn Warsaw\n"
                             "Warsaw locatedIn Poland\n")
                  .ok());
  auto after =
      engine->Execute(QueryRequest::Text("MarieCurie bornIn ?x", 5));
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->result().answers.size(), 1u);
  EXPECT_EQ(engine->RenderAnswer(after->result(), 0), "?x = Warsaw");
}

TEST(ExtendKgTest, ExistingAnswersSurviveRebuild) {
  auto engine = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->ExtendKg("MarieCurie bornIn Warsaw\n").ok());
  auto result = engine->Execute(
      QueryRequest::Text("AlbertEinstein 'won nobel for' ?x", 5));
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->result().answers.empty());
  EXPECT_EQ(engine->RenderAnswer(result->result(), 0),
            "?x = 'discovery of the photoelectric effect'");
}

TEST(ExtendKgTest, RulesStillFireAfterRebuild) {
  // The rebuild shifts dictionary ids; rules must be re-resolved.
  auto engine = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->AddManualRules(testing::kPaperRulesText).ok());
  ASSERT_TRUE(engine->ExtendKg("MarieCurie bornIn Warsaw\n"
                               "Warsaw locatedIn Poland\n")
                  .ok());
  // User A's geo relaxation still works, now also for the new entity.
  auto einstein = engine->Execute(QueryRequest::Text("?x bornIn Germany", 5));
  ASSERT_TRUE(einstein.ok());
  ASSERT_FALSE(einstein->result().answers.empty());
  EXPECT_EQ(engine->RenderAnswer(einstein->result(), 0),
            "?x = AlbertEinstein");
  auto curie = engine->Execute(QueryRequest::Text("?x bornIn Poland", 5));
  ASSERT_TRUE(curie.ok());
  ASSERT_FALSE(curie->result().answers.empty());
  EXPECT_EQ(engine->RenderAnswer(curie->result(), 0), "?x = MarieCurie");
}

TEST(ExtendKgTest, TokenFactsAllowed) {
  auto engine = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(
      engine->ExtendKg("MarieCurie 'pioneered research on' 'radioactivity'\n")
          .ok());
  auto result = engine->Execute(
      QueryRequest::Text("MarieCurie 'pioneered research on' ?x", 5));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->result().answers.size(), 1u);
  EXPECT_EQ(engine->RenderAnswer(result->result(), 0),
            "?x = 'radioactivity'");
}

TEST(ExtendKgTest, AutocompleteSeesNewVocabulary) {
  auto engine = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine->autocomplete().Complete("Marie").empty());
  ASSERT_TRUE(engine->ExtendKg("MarieCurie bornIn Warsaw\n").ok());
  auto completions = engine->autocomplete().Complete("Marie");
  ASSERT_FALSE(completions.empty());
  EXPECT_EQ(completions[0].text, "MarieCurie");
}

TEST(ExtendKgTest, RejectsVariablesAndEmptyInput) {
  auto engine = Trinit::Open(testing::BuildPaperXkg());
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine->ExtendKg("?x bornIn Warsaw\n").ok());
  EXPECT_FALSE(engine->ExtendKg("# only a comment\n").ok());
  EXPECT_FALSE(engine->ExtendKg("MalformedFactWithoutTriple\n").ok());
}

}  // namespace
}  // namespace trinit::core
