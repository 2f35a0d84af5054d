// Property test for GroupStream, the pattern-group join behind
// expansion rules (`?x p ?y => ?x p ?z ; ?z q ?y`).
//
// ExhaustiveProcessor evaluates groups through the same GroupStream, so
// the processor equivalence tests cannot see a group bug. The oracle
// here is the original algorithm, kept only as a test reference: drain
// every member LeafStream through Peek()/Pop() into Items, join them
// with a backtracking Binding::MergedWith walk in ascending member-size
// order, and stable-sort the results by score. GroupStream must emit
// the same items in the same order: bindings, bit-identical scores,
// triples, soft matches, matched form and rules, with the same decode
// work.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "query/parser.h"
#include "topk/relaxed_stream.h"
#include "util/random.h"
#include "xkg/xkg_builder.h"

namespace trinit::topk {
namespace {

// Entities E*, KG predicates p*, and token predicates "verb phrase N"
// (every third predicate) that soft-match one another.
xkg::Xkg RandomWorld(Rng& rng, int entities, int predicates, int triples) {
  xkg::XkgBuilder b;
  for (int i = 0; i < triples; ++i) {
    std::string s = "E" + std::to_string(rng.Uniform(entities));
    std::string o = "E" + std::to_string(rng.Uniform(entities));
    int p = static_cast<int>(rng.Uniform(predicates));
    if (p % 3 == 2) {
      b.AddExtraction(s, true, "verb phrase " + std::to_string(p), o, true,
                      0.5f + 0.5f * static_cast<float>(rng.UniformDouble()),
                      {static_cast<uint32_t>(i), 0, s + " ... " + o, 0.8});
    } else {
      b.AddKgFact(s, "p" + std::to_string(p), o);
    }
  }
  auto r = b.Build();
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

struct GroupRun {
  std::vector<BindingStream::Item> items;
  BindingStream::Stats stats;
};

// The pre-hash-join GroupStream algorithm.
GroupRun OracleGroup(const xkg::Xkg& xkg, const scoring::LmScorer& scorer,
                     const query::VarTable& global_vars,
                     const Alternative& alternative, size_t pattern_index) {
  std::vector<std::string> names = global_vars.names();
  for (const query::TriplePattern& p : alternative.patterns) {
    for (const std::string& v : p.Variables()) {
      if (std::find(names.begin(), names.end(), v) == names.end()) {
        names.push_back(v);
      }
    }
  }
  query::VarTable local(std::move(names));
  double chain_log = scoring::LmScorer::LogWeight(alternative.weight);

  GroupRun run;
  using Item = BindingStream::Item;
  std::vector<std::vector<Item>> lists(alternative.patterns.size());
  for (size_t i = 0; i < alternative.patterns.size(); ++i) {
    LeafStream leaf(xkg, scorer, local, alternative.patterns[i],
                    pattern_index);
    while (const Item* item = leaf.Peek()) {
      lists[i].push_back(*item);
      leaf.Pop();
    }
    run.stats += leaf.DecodeStats();
  }
  std::vector<size_t> order(lists.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&lists](size_t a, size_t b) {
    return lists[a].size() < lists[b].size();
  });

  std::string form;
  for (size_t i = 0; i < alternative.patterns.size(); ++i) {
    if (i > 0) form += " ; ";
    form += alternative.patterns[i].ToString();
  }
  std::vector<const Item*> picked;
  auto recurse = [&](auto& self, size_t depth, const query::Binding& binding,
                     double score) -> void {
    if (depth == order.size()) {
      Item item;
      item.binding = binding.Prefix(global_vars.size());
      item.log_score = score + chain_log;
      item.step.pattern_index = pattern_index;
      item.step.matched_form = form;
      item.step.rules = alternative.rules;
      for (const Item* p : picked) {
        item.step.triples.insert(item.step.triples.end(),
                                 p->step.triples.begin(),
                                 p->step.triples.end());
        item.step.soft_matches.insert(item.step.soft_matches.end(),
                                      p->step.soft_matches.begin(),
                                      p->step.soft_matches.end());
      }
      item.step.log_score = item.log_score;
      run.items.push_back(std::move(item));
      return;
    }
    for (const Item& cand : lists[order[depth]]) {
      std::optional<query::Binding> merged = binding.MergedWith(cand.binding);
      if (!merged.has_value()) continue;
      picked.push_back(&cand);
      self(self, depth + 1, *merged, score + cand.log_score);
      picked.pop_back();
    }
  };
  recurse(recurse, 0, query::Binding(local.size()), 0.0);
  std::stable_sort(run.items.begin(), run.items.end(),
                   [](const Item& a, const Item& b) {
                     return a.log_score > b.log_score;
                   });
  return run;
}

GroupRun Drain(GroupStream& stream) {
  GroupRun run;
  while (const BindingStream::Item* item = stream.Peek()) {
    run.items.push_back(*item);
    stream.Pop();
  }
  run.stats = stream.DecodeStats();
  return run;
}

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

void ExpectSameRun(const GroupRun& got, const GroupRun& want,
                   const std::string& label) {
  EXPECT_EQ(got.stats.items_decoded, want.stats.items_decoded) << label;
  EXPECT_EQ(got.stats.items_skipped, want.stats.items_skipped) << label;
  ASSERT_EQ(got.items.size(), want.items.size()) << label;
  for (size_t i = 0; i < got.items.size(); ++i) {
    const BindingStream::Item& g = got.items[i];
    const BindingStream::Item& w = want.items[i];
    SCOPED_TRACE(label + " rank " + std::to_string(i));
    EXPECT_TRUE(g.binding == w.binding);
    EXPECT_EQ(Bits(g.log_score), Bits(w.log_score));
    EXPECT_EQ(Bits(g.step.log_score), Bits(w.step.log_score));
    EXPECT_EQ(g.step.pattern_index, w.step.pattern_index);
    EXPECT_EQ(g.step.matched_form, w.step.matched_form);
    EXPECT_EQ(g.step.rules, w.step.rules);
    EXPECT_EQ(g.step.triples, w.step.triples);
    ASSERT_EQ(g.step.soft_matches.size(), w.step.soft_matches.size());
    for (size_t s = 0; s < g.step.soft_matches.size(); ++s) {
      EXPECT_EQ(g.step.soft_matches[s].query_phrase,
                w.step.soft_matches[s].query_phrase);
      EXPECT_EQ(g.step.soft_matches[s].matched_phrase,
                w.step.soft_matches[s].matched_phrase);
      EXPECT_EQ(Bits(g.step.soft_matches[s].similarity),
                Bits(w.step.soft_matches[s].similarity));
    }
  }
}

// A random slot: a variable from a small pool (shared across members,
// so groups chain, star, repeat variables or share nothing), a KG
// predicate or entity, or a token phrase that soft-matches.
std::string RandomSlot(Rng& rng, int entities, int predicates,
                       bool predicate_slot) {
  static const char* const kVars[] = {"?x", "?y", "?z", "?w"};
  if (rng.Bernoulli(predicate_slot ? 0.1 : 0.6)) {
    return kVars[rng.Uniform(4)];
  }
  if (predicate_slot) {
    int p = static_cast<int>(rng.Uniform(predicates));
    return p % 3 == 2 ? "'verb phrase " + std::to_string(p) + "'"
                      : "p" + std::to_string(p);
  }
  return "E" + std::to_string(rng.Uniform(entities));
}

TEST(GroupOracleTest, HashJoinMatchesBacktrackingJoin) {
  constexpr int kEntities = 10, kPredicates = 9;
  // Fixed shapes every world exercises, then random groups.
  const std::vector<std::string> fixed = {
      // Token member: rows carry soft matches.
      "?x 'verb phrase 2' ?z ; ?z p0 ?y",
      // Repeated variable inside a member.
      "?x p1 ?x ; ?x p0 ?y",
      "?z ?p ?z ; ?x p3 ?z",
      // Three members, a chain through two existentials.
      "?x p0 ?z ; ?z 'verb phrase 5' ?w ; ?w p1 ?y",
      // Three members, a star on ?x.
      "?x p0 ?y ; ?x p1 ?z ; ?x 'verb phrase 8' ?w",
      // No shared variable: a cross product.
      "?x p0 ?z ; ?w p1 ?y",
      // Two shared variables between members.
      "?x p0 ?y ; ?y p3 ?x",
  };
  const relax::Rule rule{"r", {}, {}, 0.6, relax::RuleKind::kManual};
  query::VarTable global(std::vector<std::string>{"x", "y"});
  Rng rng(1313);
  size_t compared = 0, with_soft = 0, nonempty = 0;
  for (int world = 0; world < 6; ++world) {
    xkg::Xkg xkg = RandomWorld(rng, kEntities, kPredicates, 90 + 30 * world);
    scoring::LmScorer scorer(xkg);
    std::vector<std::string> groups = fixed;
    for (int g = 0; g < 24; ++g) {
      int members = 2 + static_cast<int>(rng.Uniform(2));
      std::string text;
      for (int m = 0; m < members; ++m) {
        if (m > 0) text += " ; ";
        text += RandomSlot(rng, kEntities, kPredicates, false) + " " +
                RandomSlot(rng, kEntities, kPredicates, true) + " " +
                RandomSlot(rng, kEntities, kPredicates, false);
      }
      groups.push_back(text);
    }
    for (size_t g = 0; g < groups.size(); ++g) {
      auto parsed = query::Parser::Parse(groups[g], &xkg.dict());
      if (!parsed.ok()) {
        ASSERT_GE(g, fixed.size()) << parsed.status();
        continue;  // a random all-constant pattern
      }
      // Keep random cross products small enough for the oracle.
      query::VarTable all_vars(*parsed);
      size_t product = 1;
      for (const query::TriplePattern& p : parsed->patterns()) {
        LeafStream leaf(xkg, scorer, all_vars, p, 0);
        product *= std::max<size_t>(leaf.size(), 1);
      }
      if (product > 100000) continue;
      Alternative alt{parsed->patterns(), g % 2 == 0 ? 1.0 : 0.6,
                      g % 2 == 0 ? std::vector<const relax::Rule*>{}
                                 : std::vector<const relax::Rule*>{&rule}};
      GroupStream stream(xkg, scorer, global, alt, g % 3);
      GroupRun got = Drain(stream);
      GroupRun want = OracleGroup(xkg, scorer, global, alt, g % 3);
      ExpectSameRun(got, want, groups[g]);
      ++compared;
      if (!want.items.empty()) ++nonempty;
      for (const BindingStream::Item& item : want.items) {
        if (!item.step.soft_matches.empty()) {
          ++with_soft;
          break;
        }
      }
    }
  }
  // The worlds are rich enough that the comparison means something.
  EXPECT_GT(compared, 150u);
  EXPECT_GT(nonempty, compared / 3);
  EXPECT_GT(with_soft, 3u);
}

TEST(GroupOracleTest, SizeCountsSolutionsAndPeekIsStable) {
  Rng rng(77);
  xkg::Xkg xkg = RandomWorld(rng, 8, 6, 120);
  scoring::LmScorer scorer(xkg);
  auto parsed = query::Parser::Parse("?x p0 ?z ; ?w p1 ?y", &xkg.dict());
  ASSERT_TRUE(parsed.ok());
  query::VarTable global(std::vector<std::string>{"x", "y"});
  Alternative alt{parsed->patterns(), 0.5, {}};
  GroupStream stream(xkg, scorer, global, alt, 0);
  GroupRun want = OracleGroup(xkg, scorer, global, alt, 0);
  ASSERT_FALSE(want.items.empty());
  EXPECT_EQ(stream.size(), want.items.size());
  // Peek builds the item once; repeated peeks return the same item, and
  // BestPossible tracks the head.
  const BindingStream::Item* first = stream.Peek();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(stream.Peek(), first);
  EXPECT_EQ(stream.BestPossible(), first->log_score);
  GroupRun got = Drain(stream);
  ExpectSameRun(got, want, "cross product");
  EXPECT_EQ(stream.BestPossible(), BindingStream::kExhausted);
}

}  // namespace
}  // namespace trinit::topk
