// Property tests for the hash-partitioned rank-join: partitioned
// probing must be a pure pre-filter — identical answers, scores, and
// termination behavior to the plan-less linear seen-scan — every pull
// must take the highest stream head, and the compiled plan's pattern
// order must be invisible in the answer set.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "plan/planner.h"
#include "query/parser.h"
#include "relax/rewriter.h"
#include "testing/paper_world.h"
#include "topk/exhaustive_processor.h"
#include "topk/join_engine.h"
#include "topk/relaxed_stream.h"
#include "topk/topk_processor.h"
#include "util/random.h"

namespace trinit::topk {
namespace {

class ScriptedStream : public BindingStream {
 public:
  explicit ScriptedStream(std::vector<Item> items)
      : items_(std::move(items)) {}

  const Item* Peek() override {
    return next_ < items_.size() ? &items_[next_] : nullptr;
  }
  void Pop() override { ++next_; }
  double BestPossible() override {
    return next_ < items_.size() ? items_[next_].log_score : kExhausted;
  }

 private:
  std::vector<Item> items_;
  size_t next_ = 0;
};

// Every stream of one JoinEngine run, so a `RecordingStream` can check
// each pull against its siblings' heads.
struct PullLog {
  std::vector<BindingStream*> streams;  // the wrapped streams, by index
  size_t pulls = 0;
  size_t violations = 0;
};

// Passes through to `inner` and, at every Pop, checks that the engine
// pulled a maximal head: no sibling's head scores higher, and a sibling
// with an equal head has a higher index (ties go to the lowest index).
class RecordingStream : public BindingStream {
 public:
  RecordingStream(std::unique_ptr<BindingStream> inner, size_t index,
                  PullLog* log)
      : inner_(std::move(inner)), index_(index), log_(log) {}

  const Item* Peek() override { return inner_->Peek(); }
  void Pop() override {
    const Item* head = inner_->Peek();
    if (head == nullptr) ++log_->violations;  // popped an exhausted stream
    for (size_t j = 0; head != nullptr && j < log_->streams.size(); ++j) {
      const Item* other = j == index_ ? nullptr : log_->streams[j]->Peek();
      if (other == nullptr) continue;
      const bool ok = j < index_ ? other->log_score < head->log_score
                                 : other->log_score <= head->log_score;
      if (!ok) ++log_->violations;
    }
    ++log_->pulls;
    inner_->Pop();
  }
  double BestPossible() override { return inner_->BestPossible(); }
  Stats DecodeStats() const override { return inner_->DecodeStats(); }

 private:
  std::unique_ptr<BindingStream> inner_;
  size_t index_;
  PullLog* log_;
};

// ---------------------------------------------------------------------
// Randomized JoinEngine equivalence: same streams, same options, with
// and without a plan. Everything observable must match, and hash
// probing must never examine more candidates in aggregate.
// ---------------------------------------------------------------------

struct RandomSetup {
  size_t num_streams;
  size_t num_vars;
  std::vector<std::vector<query::VarId>> var_sets;  // per stream
  std::vector<std::vector<BindingStream::Item>> items;
  std::vector<query::VarId> projection;
  JoinEngine::Options options;  // shared part (k, drain, ...)
};

RandomSetup MakeSetup(Rng& rng) {
  RandomSetup setup;
  setup.num_streams = 2 + rng.Uniform(2);
  setup.num_vars = 4;
  for (size_t s = 0; s < setup.num_streams; ++s) {
    // Non-empty random var subset.
    std::vector<query::VarId> vars;
    for (query::VarId v = 0; v < setup.num_vars; ++v) {
      if (rng.Bernoulli(0.55)) vars.push_back(v);
    }
    if (vars.empty()) vars.push_back(static_cast<query::VarId>(
        rng.Uniform(static_cast<uint64_t>(setup.num_vars))));
    setup.var_sets.push_back(std::move(vars));
  }
  for (size_t s = 0; s < setup.num_streams; ++s) {
    size_t count = 3 + rng.Uniform(8);
    double score = -rng.UniformDouble();
    std::vector<BindingStream::Item> items;
    for (size_t i = 0; i < count; ++i) {
      BindingStream::Item item;
      item.binding = query::Binding(setup.num_vars);
      for (query::VarId v : setup.var_sets[s]) {
        // Occasionally leave a declared var unbound: a relaxed form
        // that dropped the variable (the wildcard-partition case).
        if (rng.Bernoulli(0.15)) continue;
        item.binding.Bind(v, 1 + static_cast<rdf::TermId>(rng.Uniform(4)));
      }
      score -= rng.UniformDouble();  // strictly descending per stream
      item.log_score = score;
      item.step.pattern_index = s;
      item.step.log_score = score;
      items.push_back(std::move(item));
    }
    setup.items.push_back(std::move(items));
  }
  for (query::VarId v = 0; v < setup.num_vars; ++v) {
    if (rng.Bernoulli(0.5)) setup.projection.push_back(v);
  }
  if (setup.projection.empty()) setup.projection.push_back(0);
  setup.options.k = 1 + static_cast<int>(rng.Uniform(5));
  setup.options.max_over_derivations = rng.Bernoulli(0.8);
  setup.options.drain = rng.Bernoulli(0.2);
  return setup;
}

std::shared_ptr<const plan::JoinPlan> PlanFor(const RandomSetup& setup) {
  auto plan = std::make_shared<plan::JoinPlan>();
  const size_t n = setup.num_streams;
  plan->order.resize(n);
  for (size_t i = 0; i < n; ++i) plan->order[i] = i;  // identity
  plan->join_keys.assign(n, std::vector<std::vector<query::VarId>>(n));
  plan->probe_preference.assign(n, {});
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      std::vector<query::VarId> shared;
      for (query::VarId v : setup.var_sets[a]) {
        if (std::find(setup.var_sets[b].begin(), setup.var_sets[b].end(),
                      v) != setup.var_sets[b].end()) {
          shared.push_back(v);
        }
      }
      plan->join_keys[a][b] = std::move(shared);
    }
  }
  for (size_t b = 0; b < n; ++b) {
    for (size_t a = 0; a < n; ++a) {
      if (a != b && !plan->join_keys[b][a].empty()) {
        plan->probe_preference[b].push_back(a);
      }
    }
    std::stable_sort(plan->probe_preference[b].begin(),
                     plan->probe_preference[b].end(),
                     [&](size_t x, size_t y) {
                       return plan->join_keys[b][x].size() >
                              plan->join_keys[b][y].size();
                     });
  }
  return plan;
}

struct RunOutcome {
  std::vector<std::pair<std::vector<rdf::TermId>, double>> answers;
  JoinEngine::Stats stats;
};

// Runs the setup's streams through one engine; with `log` set, every
// stream is wrapped in a `RecordingStream` reporting into it.
RunOutcome RunEngine(const RandomSetup& setup, const query::VarTable& vars,
                     std::shared_ptr<const plan::JoinPlan> plan,
                     PullLog* log = nullptr) {
  std::vector<std::unique_ptr<BindingStream>> streams;
  for (const auto& items : setup.items) {
    std::unique_ptr<BindingStream> stream =
        std::make_unique<ScriptedStream>(items);
    if (log != nullptr) {
      log->streams.push_back(stream.get());
      stream = std::make_unique<RecordingStream>(
          std::move(stream), log->streams.size() - 1, log);
    }
    streams.push_back(std::move(stream));
  }
  JoinEngine::Options options = setup.options;
  options.plan = std::move(plan);
  JoinEngine engine(std::move(streams), vars, setup.projection, options);
  RunOutcome outcome;
  for (const Answer& ans : engine.Run()) {
    std::vector<rdf::TermId> values;
    for (query::VarId v = 0; v < setup.num_vars; ++v) {
      values.push_back(ans.binding.Get(v));
    }
    outcome.answers.push_back({std::move(values), ans.score});
  }
  outcome.stats = engine.stats();
  return outcome;
}

TEST(JoinEnginePropertyTest, HashPartitionedMatchesLinearProbing) {
  query::VarTable vars(std::vector<std::string>{"a", "b", "c", "d"});
  Rng rng(91);
  size_t hashed_tried = 0, linear_tried = 0;
  for (int round = 0; round < 300; ++round) {
    RandomSetup setup = MakeSetup(rng);
    // No plan: every pair is a cross product, scanned in full.
    RunOutcome linear = RunEngine(setup, vars, nullptr);
    RunOutcome hashed = RunEngine(setup, vars, PlanFor(setup));

    ASSERT_EQ(hashed.answers.size(), linear.answers.size())
        << "round " << round;
    for (size_t i = 0; i < hashed.answers.size(); ++i) {
      EXPECT_EQ(hashed.answers[i].first, linear.answers[i].first)
          << "round " << round << " answer " << i;
      EXPECT_NEAR(hashed.answers[i].second, linear.answers[i].second, 1e-12);
    }
    // Identical pull/termination trajectory: probing is invisible to
    // the threshold machinery.
    EXPECT_EQ(hashed.stats.items_pulled, linear.stats.items_pulled);
    EXPECT_EQ(hashed.stats.early_terminated, linear.stats.early_terminated);
    EXPECT_EQ(hashed.stats.combinations_emitted,
              linear.stats.combinations_emitted);
    hashed_tried += hashed.stats.combinations_tried;
    linear_tried += linear.stats.combinations_tried;
  }
  // The partitions narrow the probe. Per round the connectivity-aware
  // visitation order can occasionally explore a different (rarely
  // larger) prefix tree than the plan-less index order, so the work
  // bound is asserted in aggregate.
  EXPECT_LE(hashed_tried, linear_tried);
}

// ---------------------------------------------------------------------
// Pull selection: the engine's lazy max-heap over head scores must take,
// at every pull, the stream with the highest head, the lowest index
// among equal heads — the choice a linear highest-head scan makes.
// ---------------------------------------------------------------------

TEST(JoinEnginePropertyTest, HeapPullMatchesLinearHighestHeadScan) {
  query::VarTable vars(std::vector<std::string>{"a", "b", "c", "d"});
  Rng rng(17);
  for (int round = 0; round < 300; ++round) {
    RandomSetup setup = MakeSetup(rng);
    // Round scores down to a coarse grid: heads stay non-increasing per
    // stream, and equal heads across streams test the tie-break.
    for (auto& items : setup.items) {
      for (BindingStream::Item& item : items) {
        item.log_score = std::floor(item.log_score * 2.0) / 2.0;
        item.step.log_score = item.log_score;
      }
    }
    PullLog log;
    RunOutcome recorded = RunEngine(setup, vars, PlanFor(setup), &log);
    RunOutcome plain = RunEngine(setup, vars, PlanFor(setup));

    EXPECT_EQ(log.violations, 0u) << "round " << round;
    EXPECT_EQ(log.pulls, recorded.stats.items_pulled) << "round " << round;
    // Recording only observes: the run it watched is the plain run.
    EXPECT_EQ(recorded.answers, plain.answers) << "round " << round;
    EXPECT_EQ(recorded.stats.per_stream_pulled,
              plain.stats.per_stream_pulled)
        << "round " << round;
  }
}

// ---------------------------------------------------------------------
// Processor-level equivalence and plan-order invariance on the paper
// world (relaxation machinery included).
// ---------------------------------------------------------------------

class PlanEquivalenceTest : public ::testing::Test {
 protected:
  PlanEquivalenceTest()
      : xkg_(testing::BuildPaperXkg()), rules_(testing::BuildPaperRules()) {}

  TopKResult Run(const std::string& text, bool cost_order, int k = 10) {
    auto q = query::Parser::Parse(text, &xkg_.dict());
    EXPECT_TRUE(q.ok()) << q.status();
    ProcessorOptions opts;
    opts.k = k;
    opts.use_cost_order = cost_order;
    TopKProcessor processor(xkg_, rules_, {}, opts);
    auto r = processor.Answer(*q);
    EXPECT_TRUE(r.ok()) << r.status();
    return std::move(r).value();
  }

  // Render the ranked answers as comparable strings (projection values
  // + rounded score).
  static std::vector<std::string> Rendered(const TopKResult& result) {
    std::vector<std::string> out;
    for (const Answer& ans : result.answers) {
      std::ostringstream os;
      for (size_t i = 0; i < result.projection.size(); ++i) {
        os << ans.binding.Get(static_cast<query::VarId>(i)) << "|";
      }
      os << std::llround(ans.score * 1e9);
      out.push_back(os.str());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  xkg::Xkg xkg_;
  relax::RuleSet rules_;
};

TEST_F(PlanEquivalenceTest, PlannedMatchesParserOrderAndExhaustive) {
  const char* queries[] = {
      "?x bornIn Germany",
      "AlbertEinstein hasAdvisor ?x",
      "?x affiliation ?u",
      "SELECT ?x WHERE ?x bornIn ?c ; ?c locatedIn Germany",
      "SELECT ?x WHERE ?x affiliation ?u ; ?u 'housed in' ?p",
      "SELECT ?x WHERE ?c ?p ?o ; ?x bornIn ?c ; ?c locatedIn Germany",
      "?x 'won nobel for' ?y",
  };
  ProcessorOptions opts;
  opts.k = 10;
  ExhaustiveProcessor exhaustive(xkg_, rules_, {}, opts);
  for (const char* text : queries) {
    TopKResult planned = Run(text, /*cost_order=*/true);
    TopKResult parser = Run(text, /*cost_order=*/false);
    EXPECT_EQ(Rendered(planned), Rendered(parser)) << text;

    // The exhaustive reference explores the whole rewrite space with no
    // early termination; tied bindings may differ, the score sequence
    // may not.
    auto q = query::Parser::Parse(text, &xkg_.dict());
    ASSERT_TRUE(q.ok());
    auto full = exhaustive.Answer(*q);
    ASSERT_TRUE(full.ok());
    ASSERT_EQ(planned.answers.size(), full->answers.size()) << text;
    for (size_t i = 0; i < planned.answers.size(); ++i) {
      EXPECT_NEAR(planned.answers[i].score, full->answers[i].score, 1e-9)
          << text << " rank " << i;
    }
  }
}

TEST_F(PlanEquivalenceTest, HeapPullTakesHighestHeadOverRelaxedStreams) {
  // The same pull invariant as above, over the production stream type:
  // lazily opened relaxations, soft token matches, and a compiled plan.
  const char* queries[] = {
      "?x bornIn Germany",
      "SELECT ?x WHERE ?x bornIn ?c ; ?c locatedIn Germany",
      "SELECT ?x WHERE ?c ?p ?o ; ?x bornIn ?c ; ?c locatedIn Germany",
      "?x 'won nobel for' ?y",
  };
  scoring::LmScorer scorer(xkg_, {});
  relax::Rewriter rewriter(rules_);
  for (const char* text : queries) {
    auto parsed = query::Parser::Parse(text, &xkg_.dict());
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    query::Query q(parsed->patterns(), parsed->EffectiveProjection());
    q.ResolveAgainst(xkg_.dict());
    query::VarTable vars(q);
    std::shared_ptr<const plan::JoinPlan> plan =
        plan::Planner::Compile(q, vars, xkg_);

    PullLog log;
    std::vector<std::unique_ptr<BindingStream>> streams;
    for (size_t pos = 0; pos < q.patterns().size(); ++pos) {
      const size_t i = plan->order[pos];
      auto stream = std::make_unique<RelaxedStream>(
          xkg_, scorer, vars, AlternativesForPattern(rewriter, q.patterns()[i]),
          i);
      log.streams.push_back(stream.get());
      streams.push_back(
          std::make_unique<RecordingStream>(std::move(stream), pos, &log));
    }
    std::vector<query::VarId> projection;
    for (const std::string& name : q.projection()) {
      projection.push_back(*vars.Find(name));
    }
    JoinEngine::Options options;
    options.k = 10;
    options.plan = plan;
    JoinEngine engine(std::move(streams), vars, projection, options);
    std::vector<Answer> answers = engine.Run();

    EXPECT_FALSE(answers.empty()) << text;
    EXPECT_GT(log.pulls, 0u) << text;
    EXPECT_EQ(log.pulls, engine.stats().items_pulled) << text;
    EXPECT_EQ(log.violations, 0u) << text;
  }
}

TEST_F(PlanEquivalenceTest, AnswerSetIsPatternOrderInvariant) {
  // Every permutation of the three patterns must produce the same
  // answer set and scores — the planner normalizes the order, and the
  // join is commutative.
  std::vector<std::string> patterns = {
      "?x bornIn ?c", "?c locatedIn Germany", "?x affiliation ?u"};
  std::sort(patterns.begin(), patterns.end());
  std::vector<std::vector<std::string>> rendered;
  do {
    std::string text = "SELECT ?x WHERE " + patterns[0] + " ; " +
                       patterns[1] + " ; " + patterns[2];
    for (bool cost_order : {true, false}) {
      TopKResult result = Run(text, cost_order);
      EXPECT_FALSE(result.answers.empty()) << text;
      rendered.push_back(Rendered(result));
    }
  } while (std::next_permutation(patterns.begin(), patterns.end()));
  for (size_t i = 1; i < rendered.size(); ++i) {
    EXPECT_EQ(rendered[i], rendered[0]) << "permutation run " << i;
  }
}

TEST_F(PlanEquivalenceTest, PlanReportRecordsOrderAndCardinalities) {
  TopKResult result =
      Run("SELECT ?x WHERE ?c ?p ?o ; ?x bornIn ?c ; ?c locatedIn Germany",
          /*cost_order=*/true);
  ASSERT_EQ(result.plan.size(), 3u);
  // The wildcard pattern (original index 0) must not run first.
  EXPECT_NE(result.plan[0].pattern, 0u);
  std::set<size_t> seen;
  for (const auto& step : result.plan) seen.insert(step.pattern);
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(result.stats.plan_cache_misses, 1u);
}

TEST_F(PlanEquivalenceTest, DerivationsStayInOriginalPatternOrder) {
  // The planner reorders execution (pattern 0 runs last here), but
  // derivations — and the explanation output built from them — must
  // stay in original pattern order.
  TopKResult result =
      Run("SELECT ?x WHERE ?c ?p ?o ; ?x bornIn ?c ; ?c locatedIn Germany",
          /*cost_order=*/true);
  ASSERT_FALSE(result.answers.empty());
  ASSERT_EQ(result.plan.size(), 3u);
  EXPECT_NE(result.plan[0].pattern, 0u);  // execution really reordered
  for (const Answer& ans : result.answers) {
    for (size_t i = 1; i < ans.derivation.size(); ++i) {
      EXPECT_LT(ans.derivation[i - 1].pattern_index,
                ans.derivation[i].pattern_index);
    }
  }
}

TEST_F(PlanEquivalenceTest, EarlyTerminationStillSavesPullsUnderPlan) {
  // The threshold cutoff must survive the refactor: the incremental
  // processor still pulls strictly less than the exhaustive drain.
  const char* text = "?s ?p ?o";
  TopKResult lazy = Run(text, /*cost_order=*/true, /*k=*/2);
  ProcessorOptions opts;
  opts.k = 2;
  auto q = query::Parser::Parse(text, &xkg_.dict());
  ASSERT_TRUE(q.ok());
  ExhaustiveProcessor exhaustive(xkg_, rules_, {}, opts);
  auto full = exhaustive.Answer(*q);
  ASSERT_TRUE(full.ok());
  // The wildcard scan is full of score ties, so which tied binding
  // lands in the top-2 is ambiguous across processors; the score
  // sequence itself is not.
  ASSERT_EQ(lazy.answers.size(), full->answers.size());
  for (size_t i = 0; i < lazy.answers.size(); ++i) {
    EXPECT_NEAR(lazy.answers[i].score, full->answers[i].score, 1e-9);
  }
  EXPECT_LT(lazy.stats.items_pulled, full->stats.items_pulled);
}

}  // namespace
}  // namespace trinit::topk
