// Property tests for the lazy score-ordered streaming path:
//
//  (a) a lazy LeafStream emits exactly the score-descending sequence the
//      old fully-materialized stream produced (reference: brute force
//      over Match() + ScoreTriple), while touching only the index
//      entries the consumer pays for;
//  (b) TopKProcessor answers are unchanged vs ExhaustiveProcessor on
//      randomized XKGs while pulling strictly fewer items overall.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "query/parser.h"
#include "relax/inversion_miner.h"
#include "relax/synonym_miner.h"
#include "rdf/score_order_index.h"
#include "topk/exhaustive_processor.h"
#include "topk/pattern_stream.h"
#include "topk/topk_processor.h"
#include "util/random.h"
#include "xkg/xkg_builder.h"

namespace trinit::topk {
namespace {

xkg::Xkg RandomWorld(Rng& rng, int entities, int predicates, int triples,
                     bool with_tokens) {
  xkg::XkgBuilder b;
  for (int i = 0; i < triples; ++i) {
    std::string s = "E" + std::to_string(rng.Uniform(entities));
    std::string o = "E" + std::to_string(rng.Uniform(entities));
    int p = static_cast<int>(rng.Uniform(predicates));
    if (with_tokens && p % 3 == 2) {
      b.AddExtraction(s, true, "verb phrase " + std::to_string(p), o, true,
                      0.5f + 0.5f * static_cast<float>(rng.UniformDouble()),
                      {static_cast<uint32_t>(i), 0, s + " ... " + o, 0.8});
    } else {
      // Repeated inserts aggregate counts, giving the posting lists a
      // non-trivial weight spread.
      b.AddKgFact(s, "p" + std::to_string(p), o);
    }
  }
  auto r = b.Build();
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

// A random single pattern over resource vocabulary only (so the brute
// force below can resolve it with a plain Match()).
query::TriplePattern RandomResourcePattern(Rng& rng, const xkg::Xkg& xkg) {
  const rdf::TripleStore& store = xkg.store();
  const rdf::Triple& t =
      store.triple(static_cast<rdf::TripleId>(rng.Uniform(store.size())));
  auto term_for = [&](rdf::TermId id) {
    return query::Term::Resource(std::string(xkg.dict().label(id)), id);
  };
  query::TriplePattern p;
  p.s = rng.Bernoulli(0.5) ? query::Term::Variable("x") : term_for(t.s);
  p.p = rng.Bernoulli(0.4) ? query::Term::Variable("pv") : term_for(t.p);
  p.o = rng.Bernoulli(0.5) ? query::Term::Variable("y") : term_for(t.o);
  if (p.s.is_constant() && p.p.is_constant() && p.o.is_constant()) {
    p.o = query::Term::Variable("y");
  }
  return p;
}

struct RefItem {
  double score;
  std::vector<rdf::TermId> binding;
};

// The old materialized behavior, re-derived from first principles:
// fetch the whole match set, score every triple against the pattern
// mass, sort descending.
std::vector<RefItem> BruteForce(const xkg::Xkg& xkg,
                                const scoring::LmScorer& scorer,
                                const query::VarTable& vars,
                                const query::TriplePattern& pattern) {
  rdf::TermId s = pattern.s.is_variable() ? rdf::kNullTerm : pattern.s.id;
  rdf::TermId p = pattern.p.is_variable() ? rdf::kNullTerm : pattern.p.id;
  rdf::TermId o = pattern.o.is_variable() ? rdf::kNullTerm : pattern.o.id;
  std::span<const rdf::TripleId> matches = xkg.store().Match(s, p, o);
  uint64_t mass = scorer.PatternMass(matches);

  std::vector<RefItem> out;
  for (rdf::TripleId id : matches) {
    const rdf::Triple& t = xkg.store().triple(id);
    query::Binding binding(vars.size());
    bool ok = true;
    if (pattern.s.is_variable()) {
      ok = ok && binding.Bind(vars.Require(pattern.s.text), t.s);
    }
    if (pattern.p.is_variable()) {
      ok = ok && binding.Bind(vars.Require(pattern.p.text), t.p);
    }
    if (pattern.o.is_variable()) {
      ok = ok && binding.Bind(vars.Require(pattern.o.text), t.o);
    }
    if (!ok) continue;
    RefItem item;
    item.score = scorer.ScoreTriple(t, mass);
    for (size_t v = 0; v < vars.size(); ++v) {
      item.binding.push_back(binding.Get(static_cast<query::VarId>(v)));
    }
    out.push_back(std::move(item));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const RefItem& a, const RefItem& b) {
                     return a.score > b.score;
                   });
  return out;
}

TEST(LazyLeafStreamTest, EmitsExactMaterializedSequence) {
  Rng rng(101);
  for (int round = 0; round < 8; ++round) {
    xkg::Xkg xkg = RandomWorld(rng, 10 + round * 3, 4, 150 + round * 40,
                               /*with_tokens=*/false);
    scoring::LmScorer scorer(xkg);
    for (int qi = 0; qi < 20; ++qi) {
      query::TriplePattern pattern = RandomResourcePattern(rng, xkg);
      query::VarTable vars(query::Query({pattern}, {}));
      std::vector<RefItem> reference =
          BruteForce(xkg, scorer, vars, pattern);

      LeafStream stream(xkg, scorer, vars, pattern, 0);
      std::vector<RefItem> lazy;
      while (const auto* item = stream.Peek()) {
        RefItem ref;
        ref.score = item->log_score;
        for (size_t v = 0; v < vars.size(); ++v) {
          ref.binding.push_back(
              item->binding.Get(static_cast<query::VarId>(v)));
        }
        lazy.push_back(std::move(ref));
        stream.Pop();
      }

      // Same score sequence, item for item.
      ASSERT_EQ(lazy.size(), reference.size()) << pattern.ToString();
      for (size_t i = 0; i < lazy.size(); ++i) {
        EXPECT_NEAR(lazy[i].score, reference[i].score, 1e-12)
            << "rank " << i << " of " << pattern.ToString();
        if (i > 0) EXPECT_LE(lazy[i].score, lazy[i - 1].score + 1e-12);
      }
      // Same bindings (as a multiset: equal scores may reorder).
      auto as_multimap = [](const std::vector<RefItem>& items) {
        std::multimap<long long, std::vector<rdf::TermId>> m;
        for (const RefItem& item : items) {
          m.emplace(std::llround(item.score * 1e9), item.binding);
        }
        return m;
      };
      EXPECT_EQ(as_multimap(lazy), as_multimap(reference))
          << pattern.ToString();
      // A full drain decodes everything and skips nothing.
      BindingStream::Stats stats = stream.DecodeStats();
      EXPECT_EQ(stats.items_skipped, 0u);
    }
  }
}

TEST(LazyLeafStreamTest, PeekTouchesOnlyAChunkOfTheList) {
  Rng rng(202);
  xkg::Xkg xkg = RandomWorld(rng, 8, 2, 600, /*with_tokens=*/false);
  scoring::LmScorer scorer(xkg);
  auto q = query::Parser::Parse("?s ?p ?o", &xkg.dict());
  ASSERT_TRUE(q.ok());
  query::VarTable vars(*q);
  LeafStream stream(xkg, scorer, vars, q->patterns()[0], 0);

  ASSERT_NE(stream.Peek(), nullptr);
  BindingStream::Stats stats = stream.DecodeStats();
  size_t total = stats.items_decoded + stats.items_skipped;
  EXPECT_GE(total, 100u);  // the world is big enough to mean something
  EXPECT_LE(stats.items_decoded, 32u);  // a chunk or two, not the list
  EXPECT_GT(stats.items_skipped, total / 2);

  // BestPossible never decodes on its own and never increases.
  double prev = stream.BestPossible();
  for (int i = 0; i < 50 && stream.Peek() != nullptr; ++i) {
    stream.Pop();
    double cur = stream.BestPossible();
    EXPECT_LE(cur, prev + 1e-12);
    prev = cur;
  }
}

TEST(LazyLeafStreamTest, TokenPatternsStayDescendingAndLazy) {
  Rng rng(303);
  xkg::Xkg xkg = RandomWorld(rng, 12, 6, 400, /*with_tokens=*/true);
  scoring::LmScorer scorer(xkg);
  // Soft-matches several "verb phrase N" vocabulary entries.
  auto q = query::Parser::Parse("?x 'verb phrase 2' ?y", &xkg.dict());
  ASSERT_TRUE(q.ok());
  query::VarTable vars(*q);
  LeafStream stream(xkg, scorer, vars, q->patterns()[0], 0);
  double prev = 0.0;
  size_t emitted = 0;
  while (const auto* item = stream.Peek()) {
    EXPECT_LE(item->log_score, prev + 1e-12);
    prev = item->log_score;
    ++emitted;
    stream.Pop();
  }
  EXPECT_GT(emitted, 0u);
}

TEST(LazyLeafStreamTest, AblationConfigsStayDescendingWithZeroConfidence) {
  // Regression: with use_confidence off, a zero-confidence triple lives
  // at the tail of the weight-ordered list but scores near the top; the
  // emission rule must hold it back until the tail is decoded, under
  // every ablation combination.
  xkg::XkgBuilder b;
  for (int i = 0; i < 16; ++i) {
    b.AddKgFact("A" + std::to_string(i), "p", "B" + std::to_string(i));
  }
  for (int i = 0; i < 50; ++i) {
    b.AddExtraction("A0", true, "rumored at", "C", true, 0.0f,
                    {static_cast<uint32_t>(i), 0, "A0 ... C", 0.0});
  }
  auto world = b.Build();
  ASSERT_TRUE(world.ok());
  auto q = query::Parser::Parse("?s ?p ?o", &world->dict());
  ASSERT_TRUE(q.ok());
  query::VarTable vars(*q);
  for (bool use_tf : {true, false}) {
    for (bool use_confidence : {true, false}) {
      scoring::ScorerOptions opts;
      opts.use_tf = use_tf;
      opts.use_confidence = use_confidence;
      scoring::LmScorer scorer(*world, opts);
      LeafStream stream(*world, scorer, vars, q->patterns()[0], 0);
      double prev = 0.0;
      size_t emitted = 0;
      while (const auto* item = stream.Peek()) {
        EXPECT_LE(item->log_score, prev + 1e-12)
            << "tf=" << use_tf << " conf=" << use_confidence << " at rank "
            << emitted;
        prev = item->log_score;
        ++emitted;
        stream.Pop();
      }
      EXPECT_EQ(emitted, world->store().size());
    }
  }
}

TEST(LazyLeafStreamTest, RepeatedVariablesAgreeAcrossSlots) {
  // Terms that appear as subject, predicate and object alike, so every
  // pair of slots sometimes holds the same term.
  Rng rng(606);
  xkg::XkgBuilder b;
  for (int i = 0; i < 300; ++i) {
    b.AddKgFact("E" + std::to_string(rng.Uniform(4)),
                "E" + std::to_string(rng.Uniform(4)),
                "E" + std::to_string(rng.Uniform(4)));
  }
  auto world = b.Build();
  ASSERT_TRUE(world.ok());
  scoring::LmScorer scorer(*world);
  for (const char* text :
       {"?x ?x ?y", "?x ?y ?x", "?x ?y ?y", "?x ?x ?x", "?x ?x E1"}) {
    auto q = query::Parser::Parse(text, &world->dict());
    ASSERT_TRUE(q.ok()) << q.status();
    query::VarTable vars(*q);
    std::vector<RefItem> reference =
        BruteForce(*world, scorer, vars, q->patterns()[0]);
    EXPECT_FALSE(reference.empty()) << text;
    LeafStream stream(*world, scorer, vars, q->patterns()[0], 0);
    std::multiset<std::vector<rdf::TermId>> got, want;
    while (const BindingStream::Item* item = stream.Peek()) {
      std::vector<rdf::TermId> binding;
      for (size_t v = 0; v < vars.size(); ++v) {
        binding.push_back(item->binding.Get(static_cast<query::VarId>(v)));
      }
      got.insert(std::move(binding));
      stream.Pop();
    }
    for (const RefItem& ref : reference) want.insert(ref.binding);
    EXPECT_EQ(got, want) << text;
    // Conflicting entries still count as decoded.
    EXPECT_EQ(stream.DecodeStats().items_skipped, 0u) << text;
  }
}

TEST(LazyLeafStreamTest, DrainRowsEqualsPeekPopSequence) {
  // Many equal weights: few distinct facts inserted over and over (equal
  // counts), extractions at a handful of confidences, and token phrases
  // that soft-match several vocabulary entries (several cursors per
  // pattern). The drain must reproduce the heap's tie order exactly.
  Rng rng(505);
  const float kConfidences[] = {0.5f, 0.8f, 1.0f};
  for (int round = 0; round < 4; ++round) {
    xkg::XkgBuilder b;
    for (int i = 0; i < 200 + 100 * round; ++i) {
      std::string s = "E" + std::to_string(rng.Uniform(6));
      std::string o = "E" + std::to_string(rng.Uniform(6));
      int p = static_cast<int>(rng.Uniform(6));
      if (p % 3 == 2) {
        b.AddExtraction(s, true, "verb phrase " + std::to_string(p), o, true,
                        kConfidences[rng.Uniform(3)],
                        {static_cast<uint32_t>(i), 0, s + " ... " + o, 0.8});
      } else {
        b.AddKgFact(s, "p" + std::to_string(p), o);
      }
    }
    auto world = b.Build();
    ASSERT_TRUE(world.ok());
    scoring::LmScorer scorer(*world);
    for (const char* text :
         {"?s ?p ?o", "?x p0 ?y", "?x p1 E2", "?x ?p ?x",
          "?x 'verb phrase 2' ?y", "E1 'verb phrase 5' ?y",
          "?x 'verb phrase 2' ?x"}) {
      auto q = query::Parser::Parse(text, &world->dict());
      ASSERT_TRUE(q.ok()) << q.status();
      query::VarTable vars(*q);
      LeafStream popped(*world, scorer, vars, q->patterns()[0], 0);
      LeafStream drained(*world, scorer, vars, q->patterns()[0], 0);
      std::vector<LeafStream::Row> rows = drained.DrainRows();
      size_t rank = 0, ties = 0;
      while (const BindingStream::Item* item = popped.Peek()) {
        ASSERT_LT(rank, rows.size()) << text;
        const LeafStream::Row& row = rows[rank];
        EXPECT_EQ(row.score, item->log_score) << text << " rank " << rank;
        ASSERT_EQ(item->step.triples.size(), 1u);
        EXPECT_EQ(row.triple, item->step.triples[0])
            << text << " rank " << rank;
        const std::vector<SoftMatch>& soft = drained.soft_matches(row);
        ASSERT_EQ(soft.size(), item->step.soft_matches.size());
        for (size_t i = 0; i < soft.size(); ++i) {
          EXPECT_EQ(soft[i].matched_phrase,
                    item->step.soft_matches[i].matched_phrase);
        }
        if (rank > 0 && rows[rank - 1].score == row.score) {
          EXPECT_LT(rows[rank - 1].seq, row.seq);
          ++ties;
        }
        popped.Pop();
        ++rank;
      }
      EXPECT_EQ(rank, rows.size()) << text;
      EXPECT_EQ(drained.Peek(), nullptr);
      BindingStream::Stats a = popped.DecodeStats();
      BindingStream::Stats b = drained.DecodeStats();
      EXPECT_EQ(a.items_decoded, b.items_decoded) << text;
      EXPECT_EQ(a.items_skipped, b.items_skipped) << text;
      if (std::string(text) == "?s ?p ?o") EXPECT_GT(ties, 10u);
    }
  }
}

// ---------------------------------------------------------------------
// (b) end to end: same answers as the exhaustive reference, strictly
// less work.
// ---------------------------------------------------------------------

TEST(LazyProcessorTest, SameAnswersStrictlyFewerPulls) {
  Rng rng(404);
  size_t lazy_pulled_total = 0, eager_pulled_total = 0;
  size_t lazy_decoded_total = 0, eager_decoded_total = 0;
  for (int round = 0; round < 3; ++round) {
    xkg::Xkg xkg = RandomWorld(rng, 25, 8, 500, /*with_tokens=*/true);

    relax::RuleSet rules;
    relax::SynonymMiner::Options syn_opts;
    syn_opts.min_weight = 0.05;
    syn_opts.min_overlap = 1;
    relax::SynonymMiner syn(syn_opts);
    ASSERT_TRUE(syn.Generate(xkg, &rules).ok());
    relax::InversionMiner::Options inv_opts;
    inv_opts.min_weight = 0.05;
    inv_opts.min_overlap = 1;
    relax::InversionMiner inv(inv_opts);
    ASSERT_TRUE(inv.Generate(xkg, &rules).ok());

    ProcessorOptions opts;
    opts.k = 3;
    opts.rewrite.max_depth = 1;
    opts.rewrite.min_weight = 0.05;
    TopKProcessor lazy(xkg, rules, {}, opts);
    ExhaustiveProcessor eager(xkg, rules, {}, opts);

    for (int qi = 0; qi < 10; ++qi) {
      query::TriplePattern pattern = RandomResourcePattern(rng, xkg);
      query::Query q({pattern}, {});
      auto lz = lazy.Answer(q);
      auto eg = eager.Answer(q);
      ASSERT_TRUE(lz.ok()) << lz.status();
      ASSERT_TRUE(eg.ok()) << eg.status();

      // Identical top-k score sequences.
      ASSERT_EQ(lz->answers.size(), eg->answers.size()) << q.ToString();
      for (size_t i = 0; i < lz->answers.size(); ++i) {
        EXPECT_NEAR(lz->answers[i].score, eg->answers[i].score, 1e-9)
            << "rank " << i << " of " << q.ToString();
      }

      // Never more work, usually much less.
      EXPECT_LE(lz->stats.items_pulled, eg->stats.items_pulled)
          << q.ToString();
      EXPECT_LE(lz->stats.items_decoded, eg->stats.items_decoded)
          << q.ToString();
      // The exhaustive run drains everything it opens.
      EXPECT_EQ(eg->stats.items_skipped, 0u) << q.ToString();

      lazy_pulled_total += lz->stats.items_pulled;
      eager_pulled_total += eg->stats.items_pulled;
      lazy_decoded_total += lz->stats.items_decoded;
      eager_decoded_total += eg->stats.items_decoded;
    }
  }
  // Aggregate strictness: laziness must have saved real work.
  EXPECT_LT(lazy_pulled_total, eager_pulled_total);
  EXPECT_LT(lazy_decoded_total, eager_decoded_total);
  EXPECT_GT(eager_pulled_total, 0u);
}

}  // namespace
}  // namespace trinit::topk
