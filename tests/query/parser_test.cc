#include "query/parser.h"

#include <gtest/gtest.h>

namespace trinit::query {
namespace {

TEST(ParserTest, ParsesUserAQuery) {
  auto r = Parser::Parse("?x bornIn Germany");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->patterns().size(), 1u);
  const TriplePattern& p = r->patterns()[0];
  EXPECT_EQ(p.s, Term::Variable("x"));
  EXPECT_EQ(p.p, Term::Resource("bornIn"));
  EXPECT_EQ(p.o, Term::Resource("Germany"));
  EXPECT_TRUE(r->projection().empty());
}

TEST(ParserTest, ParsesUserBQuery) {
  auto r = Parser::Parse("AlbertEinstein hasAdvisor ?x");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->patterns()[0].s, Term::Resource("AlbertEinstein"));
  EXPECT_EQ(r->patterns()[0].o, Term::Variable("x"));
}

TEST(ParserTest, ParsesUserCJoinQuery) {
  auto r =
      Parser::Parse("AlbertEinstein affiliation ?x ; ?x member IvyLeague");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->patterns().size(), 2u);
  EXPECT_EQ(r->patterns()[1].s, Term::Variable("x"));
}

TEST(ParserTest, ParsesTokenTriplePattern) {
  auto r = Parser::Parse("AlbertEinstein 'won nobel for' ?x");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->patterns()[0].p.kind, Term::Kind::kToken);
  EXPECT_EQ(r->patterns()[0].p.text, "won nobel for");
}

TEST(ParserTest, NormalizesTokenPhrases) {
  auto r = Parser::Parse("?x 'Won  A NOBEL for!' ?y");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->patterns()[0].p.text, "won a nobel for");
}

TEST(ParserTest, ParsesLiterals) {
  auto r = Parser::Parse("AlbertEinstein bornOn \"1879-03-14\"");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->patterns()[0].o.kind, Term::Kind::kLiteral);
  EXPECT_EQ(r->patterns()[0].o.text, "1879-03-14");
}

TEST(ParserTest, ParsesSelectClause) {
  auto r = Parser::Parse(
      "SELECT ?x WHERE AlbertEinstein affiliation ?x ; ?x member IvyLeague");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->projection(), (std::vector<std::string>{"x"}));
}

TEST(ParserTest, LowercaseSelectWhere) {
  auto r = Parser::Parse("select ?a where ?a p ?b");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->projection(), (std::vector<std::string>{"a"}));
}

TEST(ParserTest, DotSeparatorAccepted) {
  auto r = Parser::Parse("?x p ?y . ?y q ?z");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->patterns().size(), 2u);
}

TEST(ParserTest, TokensInAnySlot) {
  auto r = Parser::Parse("'the institute' 'housed in' 'princeton'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->patterns()[0].s.kind, Term::Kind::kToken);
  EXPECT_EQ(r->patterns()[0].p.kind, Term::Kind::kToken);
  EXPECT_EQ(r->patterns()[0].o.kind, Term::Kind::kToken);
}

TEST(ParserTest, ResolvesAgainstDictionary) {
  rdf::Dictionary dict;
  rdf::TermId ulm = dict.InternResource("Ulm");
  auto r = Parser::Parse("?x bornIn Ulm", &dict);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->patterns()[0].o.id, ulm);
  EXPECT_EQ(r->patterns()[0].p.id, rdf::kNullTerm);  // not interned
}

struct BadQueryCase {
  const char* input;
  const char* why;
};

// Names each case by its reason, so test names do not carry the
// (address-randomized) bytes of the two pointers.
void PrintTo(const BadQueryCase& c, std::ostream* os) { *os << c.why; }

class ParserErrorTest : public ::testing::TestWithParam<BadQueryCase> {};

TEST_P(ParserErrorTest, RejectsMalformedInput) {
  auto r = Parser::Parse(GetParam().input);
  ASSERT_FALSE(r.ok()) << GetParam().why;
  // Lexical/syntactic problems surface as ParseError; semantic ones
  // (validation) as InvalidArgument.
  EXPECT_TRUE(r.status().code() == StatusCode::kParseError ||
              r.status().code() == StatusCode::kInvalidArgument)
      << GetParam().why << ": " << r.status();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrorTest,
    ::testing::Values(
        BadQueryCase{"", "empty query"},
        BadQueryCase{"   \t ", "whitespace only"},
        BadQueryCase{"?x bornIn", "incomplete pattern"},
        BadQueryCase{"?x bornIn Germany ;", "trailing separator"},
        BadQueryCase{"?x bornIn Germany ?y q ?z", "missing separator"},
        BadQueryCase{"SELECT ?x ?x p ?y", "select without where"},
        BadQueryCase{"SELECT WHERE ?x p ?y", "empty projection"},
        BadQueryCase{"SELECT x WHERE ?x p ?y", "non-variable projection"},
        BadQueryCase{"SELECT ?z WHERE ?x p ?y", "projection var not used"},
        BadQueryCase{"?x 'unterminated ?y", "unterminated quote"},
        BadQueryCase{"? p o", "empty variable name"},
        BadQueryCase{"?x '!!!' ?y", "token with no word chars"}));

}  // namespace
}  // namespace trinit::query
