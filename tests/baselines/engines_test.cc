#include <gtest/gtest.h>

#include "baselines/exact_engine.h"
#include "baselines/keyword_engine.h"
#include "query/parser.h"
#include "testing/paper_world.h"

namespace trinit::baselines {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  BaselinesTest() : xkg_(testing::BuildPaperXkg()) {}

  query::Query Parse(const char* text) {
    auto r = query::Parser::Parse(text, &xkg_.dict());
    EXPECT_TRUE(r.ok()) << r.status();
    return std::move(r).value();
  }

  xkg::Xkg xkg_;
};

TEST_F(BaselinesTest, ExactEngineAnswersDirectFacts) {
  ExactEngine engine(xkg_, {});
  auto r = engine.Execute(
      core::QueryRequest::Parsed(Parse("AlbertEinstein bornIn ?x"), 5));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->result().answers.size(), 1u);
  EXPECT_EQ(xkg_.dict().DebugLabel(r->result().ValueAt(0, 0)), "Ulm");
}

TEST_F(BaselinesTest, ExactEngineCannotRelax) {
  ExactEngine engine(xkg_, {});
  // User A's query: strict matching finds nothing.
  auto r = engine.Execute(
      core::QueryRequest::Parsed(Parse("?x bornIn Germany"), 5));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->result().answers.empty());
  // User B likewise.
  auto r2 = engine.Execute(
      core::QueryRequest::Parsed(Parse("AlbertEinstein hasAdvisor ?x"), 5));
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->result().answers.empty());
}

TEST_F(BaselinesTest, ExactEngineStillSeesXkgTokens) {
  // Exact over the *extended* KG answers user D without relaxation.
  ExactEngine engine(xkg_, {});
  auto r = engine.Execute(core::QueryRequest::Parsed(
      Parse("AlbertEinstein 'won nobel for' ?x"), 5));
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->result().answers.empty());
}

TEST_F(BaselinesTest, KeywordEngineFindsCooccurringEntities) {
  KeywordEngine engine(xkg_, {});
  auto r = engine.Execute(
      core::QueryRequest::Parsed(Parse("AlbertEinstein affiliation ?x"), 5));
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->result().answers.empty());
  // IAS co-occurs with AlbertEinstein + affiliation; it should rank
  // among the top answers.
  bool found_ias = false;
  for (size_t i = 0; i < r->result().answers.size(); ++i) {
    if (xkg_.dict().DebugLabel(r->result().ValueAt(i, 0)) == "IAS") {
      found_ias = true;
    }
  }
  EXPECT_TRUE(found_ias);
}

TEST_F(BaselinesTest, KeywordEngineIgnoresJoinStructure) {
  KeywordEngine engine(xkg_, {});
  // The join query: a structure-aware engine needs Princeton; the
  // keyword engine just returns entities co-occurring with the
  // constants — it may or may not hit Princeton, but it must NOT verify
  // the join. We assert it also returns entities that do not satisfy
  // the join (evidence of structure-blindness) or misses the join
  // altogether.
  auto r = engine.Execute(core::QueryRequest::Parsed(
      Parse("SELECT ?x WHERE AlbertEinstein affiliation ?x ; ?x member "
            "IvyLeague"),
      10));
  ASSERT_TRUE(r.ok());
  bool has_non_join_answer = false;
  for (size_t i = 0; i < r->result().answers.size(); ++i) {
    std::string label = xkg_.dict().DebugLabel(r->result().ValueAt(i, 0));
    if (label != "PrincetonUniversity") has_non_join_answer = true;
  }
  EXPECT_TRUE(r->result().answers.empty() || has_non_join_answer);
}

TEST_F(BaselinesTest, KeywordEngineExpandsTokensSoftly) {
  KeywordEngine engine(xkg_, {});
  auto r = engine.Execute(
      core::QueryRequest::Parsed(Parse("?x 'lectured' ?y"), 5));
  ASSERT_TRUE(r.ok());
  // 'lectured' soft-matches 'lectured at'; Einstein and Princeton
  // co-occur with it.
  ASSERT_FALSE(r->result().answers.empty());
}

TEST_F(BaselinesTest, KeywordEngineRespectsK) {
  KeywordEngine engine(xkg_, {});
  auto r = engine.Execute(
      core::QueryRequest::Parsed(Parse("AlbertEinstein ?p ?o"), 2));
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->result().answers.size(), 2u);
}

TEST_F(BaselinesTest, KeywordEngineEmptyForUnknownConstants) {
  KeywordEngine engine(xkg_, {});
  auto r = engine.Execute(
      core::QueryRequest::Parsed(Parse("NoSuchEntity unknownPred ?x"), 5));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->result().answers.empty());
}

TEST_F(BaselinesTest, EnginesRejectInvalidQueries) {
  ExactEngine exact(xkg_, {});
  KeywordEngine keyword(xkg_, {});
  query::Query empty;
  EXPECT_FALSE(exact.Execute(core::QueryRequest::Parsed(empty, 5)).ok());
  EXPECT_FALSE(keyword.Execute(core::QueryRequest::Parsed(empty, 5)).ok());
}

}  // namespace
}  // namespace trinit::baselines
