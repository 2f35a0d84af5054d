#include "relax/rule.h"

#include <gtest/gtest.h>

#include "relax/manual_rules.h"
#include "relax/rule_set.h"

namespace trinit::relax {
namespace {

using query::Term;
using query::TriplePattern;

Rule SimpleRule(const std::string& p1, const std::string& p2, double w) {
  Rule r;
  r.name = p1 + "->" + p2;
  r.weight = w;
  r.lhs = {TriplePattern{Term::Variable("x"), Term::Resource(p1),
                         Term::Variable("y")}};
  r.rhs = {TriplePattern{Term::Variable("x"), Term::Resource(p2),
                         Term::Variable("y")}};
  return r;
}

TEST(RuleTest, ValidateAcceptsWellFormed) {
  EXPECT_TRUE(SimpleRule("a", "b", 0.5).Validate().ok());
  EXPECT_TRUE(SimpleRule("a", "b", 0.0).Validate().ok());
  EXPECT_TRUE(SimpleRule("a", "b", 1.0).Validate().ok());
}

TEST(RuleTest, ValidateRejectsBadWeight) {
  EXPECT_FALSE(SimpleRule("a", "b", -0.1).Validate().ok());
  EXPECT_FALSE(SimpleRule("a", "b", 1.1).Validate().ok());
}

TEST(RuleTest, ValidateRejectsEmptySides) {
  Rule r = SimpleRule("a", "b", 0.5);
  r.lhs.clear();
  EXPECT_FALSE(r.Validate().ok());
  r = SimpleRule("a", "b", 0.5);
  r.rhs.clear();
  EXPECT_FALSE(r.Validate().ok());
}

TEST(RuleTest, ValidateRejectsNoOp) {
  Rule r = SimpleRule("a", "a", 0.5);
  EXPECT_FALSE(r.Validate().ok());
}

TEST(RuleTest, ToStringMatchesManualSyntax) {
  Rule r = SimpleRule("hasAdvisor", "hasStudent", 1.0);
  r.rhs = {TriplePattern{Term::Variable("y"), Term::Resource("hasStudent"),
                         Term::Variable("x")}};
  EXPECT_EQ(r.ToString(),
            "?x hasAdvisor ?y => ?y hasStudent ?x @ 1.000");
}

TEST(RuleSetTest, AddAndSize) {
  RuleSet rules;
  ASSERT_TRUE(rules.Add(SimpleRule("a", "b", 0.5)).ok());
  ASSERT_TRUE(rules.Add(SimpleRule("a", "c", 0.4)).ok());
  EXPECT_EQ(rules.size(), 2u);
}

TEST(RuleSetTest, DuplicateKeepsMaxWeight) {
  RuleSet rules;
  ASSERT_TRUE(rules.Add(SimpleRule("a", "b", 0.5)).ok());
  Rule dup = SimpleRule("a", "b", 0.5);
  ASSERT_TRUE(rules.Add(dup).ok());
  EXPECT_EQ(rules.size(), 1u);
}

TEST(RuleSetTest, RejectsInvalid) {
  RuleSet rules;
  EXPECT_FALSE(rules.Add(SimpleRule("a", "b", 2.0)).ok());
  EXPECT_EQ(rules.size(), 0u);
}

TEST(RuleSetTest, CandidatesIndexedByPredicate) {
  RuleSet rules;
  ASSERT_TRUE(rules.Add(SimpleRule("a", "b", 0.5)).ok());
  ASSERT_TRUE(rules.Add(SimpleRule("c", "d", 0.4)).ok());
  auto for_a = rules.CandidatesForPredicate(Term::Resource("a"));
  ASSERT_EQ(for_a.size(), 1u);
  EXPECT_EQ(for_a[0]->name, "a->b");
  EXPECT_TRUE(rules.CandidatesForPredicate(Term::Resource("zz")).empty());
}

TEST(RuleSetTest, VariablePredicateRulesAreGeneric) {
  RuleSet rules;
  Rule generic;
  generic.name = "invert-anything";
  generic.weight = 0.3;
  generic.lhs = {TriplePattern{Term::Variable("x"), Term::Variable("p"),
                               Term::Variable("y")}};
  generic.rhs = {TriplePattern{Term::Variable("y"), Term::Variable("p"),
                               Term::Variable("x")}};
  ASSERT_TRUE(rules.Add(std::move(generic)).ok());
  ASSERT_TRUE(rules.Add(SimpleRule("a", "b", 0.5)).ok());
  // Generic rules are candidates for every predicate.
  EXPECT_EQ(rules.CandidatesForPredicate(Term::Resource("a")).size(), 2u);
  EXPECT_EQ(rules.CandidatesForPredicate(Term::Resource("zz")).size(), 1u);
  EXPECT_EQ(rules.CandidatesForPredicate(Term::Variable("p")).size(), 1u);
}

TEST(RuleSetTest, TokenAndResourcePredicatesDistinct) {
  RuleSet rules;
  Rule r = SimpleRule("a", "b", 0.5);
  r.lhs[0].p = Term::Token("works at");
  ASSERT_TRUE(rules.Add(r).ok());
  EXPECT_EQ(rules.CandidatesForPredicate(Term::Token("works at")).size(),
            1u);
  EXPECT_TRUE(
      rules.CandidatesForPredicate(Term::Resource("works at")).empty());
}

TEST(RuleSetTest, WithoutKindFiltersAndCounts) {
  RuleSet rules;
  Rule syn = SimpleRule("a", "b", 0.5);
  syn.kind = RuleKind::kSynonym;
  Rule inv = SimpleRule("a", "c", 0.4);
  inv.kind = RuleKind::kInversion;
  ASSERT_TRUE(rules.Add(syn).ok());
  ASSERT_TRUE(rules.Add(inv).ok());
  EXPECT_EQ(rules.CountOfKind(RuleKind::kSynonym), 1u);
  RuleSet filtered = rules.WithoutKind(RuleKind::kSynonym);
  EXPECT_EQ(filtered.size(), 1u);
  EXPECT_EQ(filtered.CountOfKind(RuleKind::kSynonym), 0u);
  EXPECT_EQ(filtered.CountOfKind(RuleKind::kInversion), 1u);
}

TEST(ManualRulesTest, ParsesFigure4Rules) {
  auto rules = ParseManualRules(
      "rule2: ?x hasAdvisor ?y => ?y hasStudent ?x @ 1.0\n"
      "rule3: ?x affiliation ?y => ?x affiliation ?z ; ?z 'housed in' ?y "
      "@ 0.8\n");
  ASSERT_TRUE(rules.ok()) << rules.status();
  ASSERT_EQ(rules->size(), 2u);
  EXPECT_EQ((*rules)[0].name, "rule2");
  EXPECT_DOUBLE_EQ((*rules)[0].weight, 1.0);
  EXPECT_EQ((*rules)[1].rhs.size(), 2u);
  EXPECT_EQ((*rules)[1].rhs[1].p.kind, query::Term::Kind::kToken);
  EXPECT_DOUBLE_EQ((*rules)[1].weight, 0.8);
}

TEST(ManualRulesTest, ParsesMultiPatternLhs) {
  auto rules = ParseManualRules(
      "rule1: ?x bornIn ?y ; ?y type country => ?x bornIn ?z ; ?z type "
      "city ; ?z locatedIn ?y @ 1.0\n");
  ASSERT_TRUE(rules.ok()) << rules.status();
  EXPECT_EQ((*rules)[0].lhs.size(), 2u);
  EXPECT_EQ((*rules)[0].rhs.size(), 3u);
}

TEST(ManualRulesTest, SkipsCommentsAndBlanks) {
  auto rules = ParseManualRules(
      "# a comment\n"
      "\n"
      "?x a ?y => ?x b ?y @ 0.5\n");
  ASSERT_TRUE(rules.ok());
  EXPECT_EQ(rules->size(), 1u);
  EXPECT_EQ((*rules)[0].name, "manual_3");  // line number based
}

struct BadRuleCase {
  const char* line;
  const char* why;
};

// Names each case by its reason, so test names do not carry the
// (address-randomized) bytes of the two pointers.
void PrintTo(const BadRuleCase& c, std::ostream* os) { *os << c.why; }

class ManualRuleErrorTest : public ::testing::TestWithParam<BadRuleCase> {};

TEST_P(ManualRuleErrorTest, Rejects) {
  auto r = ParseManualRule(GetParam().line, 1);
  EXPECT_FALSE(r.ok()) << GetParam().why;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ManualRuleErrorTest,
    ::testing::Values(
        BadRuleCase{"?x a ?y -> ?x b ?y @ 0.5", "wrong arrow"},
        BadRuleCase{"?x a ?y => ?x b ?y", "missing weight"},
        BadRuleCase{"?x a ?y => ?x b ?y @ banana", "non-numeric weight"},
        BadRuleCase{"?x a ?y => ?x b ?y @ 1.5", "weight out of range"},
        BadRuleCase{"=> ?x b ?y @ 0.5", "empty lhs"},
        BadRuleCase{"?x a ?y => @ 0.5", "empty rhs"},
        BadRuleCase{"?x a => ?x b ?y @ 0.5", "incomplete lhs pattern"}));

}  // namespace
}  // namespace trinit::relax
