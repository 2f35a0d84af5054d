#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/trinit.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "inputs.h"
#include "openie/pipeline.h"
#include "plan/planner.h"
#include "query/parser.h"
#include "relax/rewriter.h"
#include "synth/corpus_generator.h"
#include "topk/exhaustive_processor.h"
#include "util/mutex.h"
#include "xkg/xkg_builder.h"

namespace perfbench {
namespace {

namespace core = trinit::core;
namespace plan = trinit::plan;
namespace query = trinit::query;
namespace relax = trinit::relax;

using core::Trinit;
using trinit::Result;
using RunStats = topk::TopKResult::RunStats;
using Body = std::shared_ptr<const topk::TopKResult>;

// Answers per request; NDCG@5 is read from the top 10, as in the
// paper's evaluation.
constexpr int kAnswers = 10;
// explore's quality floor: the NDCG@5 of the paper's next-best system
// (0.419, §4). TriniT falling below it loses the paper's result.
constexpr double kNdcgFloor = 0.419;
// Every join request carries this deadline. Most joins finish in a few
// milliseconds; all-wildcard chains of three or more patterns, and the
// slowest chains with a wildcard predicate, run into it.
constexpr double kJoinTimeoutMs = 100.0;
// The exhaustive reference gets this much time per sampled request; a
// sample whose reference cannot finish is reported as unverified.
constexpr double kReferenceBudgetMs = 5000.0;
// Requests compared against the exhaustive reference per run, drawn
// from the answers kept: judged ones and every kKeepEvery-th request.
constexpr size_t kReferenceSamples = 12;
constexpr size_t kKeepEvery = 16;
// Set-ups timed per run; setup_s is their median. Building the small
// world takes about 0.1 s and opening hot's snapshot about 12 ms, so
// join and hot time more of them than explore, whose build takes 0.5 s.
constexpr int kLargeBuildRepeats = 5;
constexpr int kSmallBuildRepeats = 15;
constexpr int kOpenRepeats = 21;
// Distinct-query pools. explore's is split into 300 warm-up and 1,000
// measured queries; the generator saturates near 2,150 on the large
// world, and the granularity and advisor archetypes run out first. One
// pass over the measured queries takes about 2 s, and a run makes more
// than ten. hot's is about all the small world supports, and fits the
// answer cache (1,024 entries).
constexpr size_t kExplorePool = 1300;
constexpr size_t kHotPool = 400;
constexpr size_t kJoinPool = 6000;
constexpr size_t kWarmRequests = 300;
// hot: client count cap, Zipf exponent, and the write cadence of
// client 0 (one AddManualRules per this many of its own requests). Two
// clients leave cores to the rest of the machine; on a 4-core box four
// clients spread the 99th percentile by 16.5 % over ten seeds, two by
// 3-14 %. No traffic record sets the write rate. It is chosen so that
// the miss bursts reach the reported quantiles: a generation holds about
// 10,000 requests and 390 misses (4 %), so the 99th percentile falls
// among the misses and the median among the hits.
constexpr size_t kMaxClients = 2;
constexpr double kZipfExponent = 1.0;
constexpr size_t kWriteEvery = 5000;
// A traced hot run traces one request in this many, at most
// kHotTracedPerClient per client, which keeps its span log small;
// single-client runs trace every second request.
constexpr size_t kHotTraceEvery = 256;
constexpr size_t kHotTracedPerClient = 4000;
constexpr uint64_t kHotRankSeed = 2016;
// The write: a rule over predicates no query uses, so it changes no
// answer, yet bumps the generation and invalidates every cached entry.
constexpr const char* kWriteRule =
    "perfbench_write: ?x perfbenchFrom ?y => ?x perfbenchTo ?y @ 0.5";
// Warm-up streams are drawn from the seed mixed with this constant, so
// they never repeat the measured stream.
constexpr uint64_t kWarmSalt = 0x5851f42d4c957f2dULL;

double Seconds(Clock::time_point start) { return MillisSince(start) / 1e3; }

void Problem(Outcome* out, std::string what) {
  std::fprintf(stderr, "perfbench: FAILED CHECK: %s\n", what.c_str());
  out->problems.push_back(std::move(what));
}

core::QueryRequest MakeRequest(const Request& r, double timeout_ms) {
  core::QueryRequest request = core::QueryRequest::Text(r.text, kAnswers);
  request.timeout_ms = timeout_ms;
  return request;
}

// ------------------------------------------------------------ set-up

// Per-layer costs of one engine build (traced runs).
struct SetupLayers {
  double openie_s = 0.0;
  double xkg_build_s = 0.0;
  double mine_s = 0.0;
  double save_s = 0.0;
  std::vector<double> open_s;
  double bytes_per_triple = 0.0;
};

// `Trinit::FromWorld`, step by step through the same public calls so the
// Open IE pass, the XKG build and rule mining each get a span.
Result<Trinit> BuildTraced(const synth::World& world, Tracer& tracer,
                           SetupLayers* layers) {
  trinit::xkg::XkgBuilder builder;
  synth::KgGenerator::PopulateKg(world, &builder);
  const std::vector<synth::Document> docs =
      synth::CorpusGenerator::Generate(world);
  trinit::openie::Pipeline pipeline(
      trinit::openie::Extractor(),
      trinit::openie::Pipeline::LinkerForWorld(world));
  int span = tracer.Begin(0, "openie.run");
  pipeline.Run(docs, &builder);
  tracer.End(span);
  layers->openie_s = tracer.spans()[span].duration_us() / 1e6;

  span = tracer.Begin(0, "xkg.build");
  Result<trinit::xkg::Xkg> xkg = builder.Build();
  tracer.End(span);
  layers->xkg_build_s = tracer.spans()[span].duration_us() / 1e6;
  if (!xkg.ok()) return xkg.status();

  span = tracer.Begin(0, "relax.mine");
  Result<Trinit> engine = Trinit::Open(std::move(xkg).value());
  tracer.End(span);
  layers->mine_s = tracer.spans()[span].duration_us() / 1e6;
  return engine;
}

// Builds the engine from `world`: once with spans in a traced run,
// otherwise several times, recording each build's wall time.
std::optional<Trinit> Build(const synth::World& world, const Options& o,
                            Tracer& tracer, SetupLayers* layers,
                            std::vector<double>* setup_s, Outcome* out) {
  std::optional<Trinit> engine;
  const int repeats = o.trace                  ? 1
                      : o.workload == "explore" ? kLargeBuildRepeats
                                                : kSmallBuildRepeats;
  for (int r = 0; r < repeats; ++r) {
    engine.reset();  // one engine alive at a time
    const Clock::time_point start = Clock::now();
    Result<Trinit> built = o.trace ? BuildTraced(world, tracer, layers)
                                   : Trinit::FromWorld(world);
    setup_s->push_back(Seconds(start));
    if (!built.ok()) {
      Problem(out, "engine build: " + built.status().ToString());
      return std::nullopt;
    }
    engine.emplace(std::move(built).value());
  }
  return engine;
}

// The engine's rule set, copied while no writer runs: the layer probes
// read it while the hot writer mutates the engine's own.
std::unique_ptr<relax::RuleSet> CopyRules(const Trinit& engine) {
  auto copy = std::make_unique<relax::RuleSet>();
  for (const relax::Rule& rule : engine.rules().rules()) {
    if (!copy->Add(rule).ok()) return nullptr;
  }
  return copy;
}

// Runs unmeasured requests so lazy score-order shapes and the plan cache
// are filled before timing.
void Warm(const Trinit& engine, const Stream& stream, double timeout_ms,
          Outcome* out) {
  for (const Request& r : stream.requests) {
    if (!engine.Execute(MakeRequest(r, timeout_ms)).ok()) {
      Problem(out, "warm-up request failed: " + r.text);
      return;
    }
  }
}

// ------------------------------------------------------ layer probes

// Work counted where the traced requests' spans are recorded.
struct LayerCounts {
  size_t traced = 0;
  size_t probed = 0;  // traced requests the engine executed (no cache hit)
  size_t similar_calls = 0;
  size_t candidates = 0;
  double overhead_us = 0.0;
  size_t overhead_n = 0;
  double card_error = 0.0;
  size_t card_steps = 0;
  RunStats work;  // of the probed TopKProcessor runs, summed
  // Execute wall times of traced and untraced requests, and of the
  // untraced ones the answer cache served (a traced hit also pays for
  // building its trace).
  double traced_ms = 0.0;
  double untraced_ms = 0.0;
  size_t untraced = 0;
  double hit_ms = 0.0;
  size_t hits = 0;

  void Merge(const LayerCounts& o) {
    traced += o.traced;
    probed += o.probed;
    similar_calls += o.similar_calls;
    candidates += o.candidates;
    overhead_us += o.overhead_us;
    overhead_n += o.overhead_n;
    card_error += o.card_error;
    card_steps += o.card_steps;
    AddWork(o.work);
    traced_ms += o.traced_ms;
    untraced_ms += o.untraced_ms;
    untraced += o.untraced;
    hit_ms += o.hit_ms;
    hits += o.hits;
  }
  void AddWork(const RunStats& s) {
    work.query_variants_evaluated += s.query_variants_evaluated;
    work.alternatives_total += s.alternatives_total;
    work.alternatives_opened += s.alternatives_opened;
    work.items_pulled += s.items_pulled;
    work.items_decoded += s.items_decoded;
    work.combinations_tried += s.combinations_tried;
    work.combinations_emitted += s.combinations_emitted;
    work.partition_probes += s.partition_probes;
    work.partition_fallbacks += s.partition_fallbacks;
  }
};

// What the probes read: the engine's XKG, a quiesced copy of its rules,
// and a plan cache of their own, so the engine's cache counters count
// only the engine's lookups.
struct ProbeContext {
  ProbeContext(const Trinit& e, const relax::RuleSet& r)
      : engine(e), rules(r) {}
  const Trinit& engine;
  const relax::RuleSet& rules;
  plan::PlanCache plans;
};

// One client's trace state.
struct Client {
  explicit Client(Clock::time_point origin) : tracer(origin) {}
  Tracer tracer;
  LayerCounts counts;
};

// Calls each layer's public entry point on the request's query, one span
// per call, under `parent`. Only the parse runs for a request the engine
// answered from its cache: the engine did nothing more for it.
void ProbeLayers(const ProbeContext& ctx, const core::QueryRequest& request,
                 uint64_t id, int parent, bool executed, Client& client) {
  Tracer& tracer = client.tracer;
  const trinit::xkg::Xkg& xkg = ctx.engine.xkg();
  int span = tracer.Begin(id, "query.parse", parent);
  Result<query::Query> parsed = query::Parser::Parse(request.text, &xkg.dict());
  tracer.End(span);
  if (!parsed.ok() || !executed) return;
  ++client.counts.probed;
  const core::ResolvedOptions opts = core::ResolveRequestOptions(
      ctx.engine.options().scorer, ctx.engine.options().processor, request);

  // Soft matching of the user's quoted phrases.
  for (const query::TriplePattern& p : parsed->patterns()) {
    for (const query::Term* term : {&p.s, &p.p, &p.o}) {
      if (term->kind != query::Term::Kind::kToken) continue;
      span = tracer.Begin(id, "text.find_similar", parent);
      const size_t found =
          xkg.phrase_index()
              .FindSimilar(term->text, opts.scorer.token_match_threshold)
              .size();
      tracer.End(span);
      ++client.counts.similar_calls;
      client.counts.candidates += found;
    }
  }

  // The per-pattern relaxation alternatives the processor enumerates.
  if (opts.processor.enable_relaxation) {
    const relax::Rewriter rewriter(ctx.rules, opts.processor.rewrite);
    span = tracer.Begin(id, "relax.rewrite", parent);
    for (const query::TriplePattern& p : parsed->patterns()) {
      (void)rewriter.EnumerateRewrites(query::Query({p}, {}));
    }
    tracer.End(span);
  }

  query::Query canonical(parsed->patterns(), parsed->EffectiveProjection());
  canonical.ResolveAgainst(xkg.dict());
  span = tracer.Begin(id, "plan.compile", parent);
  (void)plan::Planner::Compile(canonical, query::VarTable(canonical), xkg,
                               opts.processor.use_cost_order);
  tracer.End(span);

  span = tracer.Begin(id, "topk.answer", parent);
  const topk::TopKProcessor processor(xkg, ctx.rules, opts.scorer,
                                      opts.processor, &ctx.plans);
  Result<topk::TopKResult> answered = processor.Answer(*parsed);
  tracer.End(span);
  if (answered.ok()) client.counts.AddWork(answered->stats);
}

// Executes `base` and returns its wall time in `ms`. A traced request
// sets `QueryRequest::trace`, gets a span tree, and is followed by the
// layer probes; untraced requests in a traced run are the baseline of
// obs.trace_overhead_pct.
Result<core::QueryResponse> Send(const Trinit& engine,
                                 const core::QueryRequest& base, uint64_t id,
                                 const ProbeContext* probe, bool traced,
                                 Client* client, double* ms) {
  if (!traced) {
    const Clock::time_point start = Clock::now();
    Result<core::QueryResponse> response = engine.Execute(base);
    *ms = MillisSince(start);
    if (probe != nullptr) {
      client->counts.untraced_ms += *ms;
      ++client->counts.untraced;
      if (response.ok() && response->serving.answer_hit) {
        client->counts.hit_ms += *ms;
        ++client->counts.hits;
      }
    }
    return response;
  }
  Tracer& tracer = client->tracer;
  core::QueryRequest request = base;
  request.trace = true;
  const int root = tracer.Begin(id, "request");
  const int exec = tracer.Begin(id, "core.execute", root);
  Result<core::QueryResponse> response = engine.Execute(request);
  tracer.End(exec);
  *ms = tracer.spans()[exec].duration_us() / 1e3;
  LayerCounts& counts = client->counts;
  ++counts.traced;
  counts.traced_ms += *ms;
  const bool executed = response.ok() && !response->serving.answer_hit;
  if (response.ok()) {
    double stages_ms = 0.0;
    for (const core::StageTiming& stage : response->stages) {
      stages_ms += stage.millis;
    }
    counts.overhead_us += (*ms - stages_ms) * 1e3;
    ++counts.overhead_n;
    for (const topk::TopKResult::PlanStep& step : response->result().plan) {
      if (!executed) break;
      counts.card_error += std::fabs(std::log2(
          (static_cast<double>(step.pulled) + 1.0) / (step.estimated + 1.0)));
      ++counts.card_steps;
    }
  }
  ProbeLayers(*probe, request, id, root, executed, *client);
  tracer.End(root);
  return response;
}

// --------------------------------------------------------- reporting

struct SpanTotals {
  double us = 0.0;
  size_t n = 0;
  double MeanUs() const { return n == 0 ? 0.0 : us / static_cast<double>(n); }
};

std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, SpanTotals> totals;
  for (const Tracer* t : tracers) {
    for (const Span& s : t->spans()) {
      SpanTotals& total = totals[s.name];
      total.us += s.duration_us();
      ++total.n;
    }
  }
  return totals;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Serving-cache activity over the measured requests, from
// `serving_cache().counters()` deltas.
struct ServeDeltas {
  double answer_hit_ratio = 0.0;
  double plan_hit_ratio = 0.0;
  double invalidated_per_write = 0.0;
};

ServeDeltas Deltas(const trinit::serve::ServingCache::Counters& before,
                   const trinit::serve::ServingCache::Counters& after,
                   size_t writes, size_t answers_invalidated) {
  ServeDeltas d;
  const double hits = static_cast<double>(after.answer_hits - before.answer_hits);
  const double misses =
      static_cast<double>(after.answer_misses - before.answer_misses);
  d.answer_hit_ratio = Ratio(hits, hits + misses);
  const double plan_hits = static_cast<double>(after.plan_hits - before.plan_hits);
  const double plan_misses =
      static_cast<double>(after.plan_misses - before.plan_misses);
  d.plan_hit_ratio = Ratio(plan_hits, plan_hits + plan_misses);
  const double plans_invalidated =
      static_cast<double>(after.plan_invalidated - before.plan_invalidated);
  d.invalidated_per_write =
      Ratio(static_cast<double>(answers_invalidated) + plans_invalidated,
            static_cast<double>(writes));
  return d;
}

// Every per-layer metric of a traced run.
void AddLayerMetrics(const std::vector<const Tracer*>& tracers,
                     const LayerCounts& c, const SetupLayers& setup,
                     const ServeDeltas& serve,
                     const std::vector<double>& overshoot_ms,
                     const Trinit& engine, Outcome* out) {
  const std::map<std::string, SpanTotals> spans = TotalsByName(tracers);
  auto span = [&spans](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? SpanTotals() : it->second;
  };
  const double probed = static_cast<double>(c.probed);
  const RunStats& w = c.work;
  auto per_probe = [&](size_t v) {
    return Ratio(static_cast<double>(v), probed);
  };

  out->Add("query.parse_us", span("query.parse").MeanUs(), "us");
  out->Add("serve.answer_hit_ratio", serve.answer_hit_ratio, "ratio");
  out->Add("serve.plan_hit_ratio", serve.plan_hit_ratio, "ratio");
  out->Add("serve.hit_us",
           Ratio(c.hit_ms * 1e3, static_cast<double>(c.hits)), "us");
  out->Add("serve.invalidated_entries", serve.invalidated_per_write,
           "count");
  out->Add("text.find_similar_us", span("text.find_similar").MeanUs(), "us");
  out->Add("text.find_similar_calls",
           Ratio(static_cast<double>(c.similar_calls),
                 static_cast<double>(c.traced)),
           "count");
  out->Add("text.candidates",
           Ratio(static_cast<double>(c.candidates),
                 static_cast<double>(c.similar_calls)),
           "count");
  out->Add("relax.rewrite_us", Ratio(span("relax.rewrite").us, probed), "us");
  out->Add("relax.variants_evaluated", per_probe(w.query_variants_evaluated),
           "count");
  out->Add("relax.alternatives_opened_ratio",
           Ratio(static_cast<double>(w.alternatives_opened),
                 static_cast<double>(w.alternatives_total)),
           "ratio");
  out->Add("relax.mine_s", setup.mine_s, "s");
  out->Add("plan.compile_us", span("plan.compile").MeanUs(), "us");
  out->Add("plan.card_error_log2",
           Ratio(c.card_error, static_cast<double>(c.card_steps)), "log2");
  const SpanTotals topk = span("topk.answer");
  out->Add("topk.process_ms", topk.MeanUs() / 1e3, "ms");
  out->Add("topk.ns_per_pull",
           Ratio(topk.us * 1e3, static_cast<double>(w.items_pulled)), "ns");
  out->Add("topk.items_pulled", per_probe(w.items_pulled), "count");
  out->Add("topk.items_decoded", per_probe(w.items_decoded), "count");
  out->Add("topk.decoded_per_pull",
           Ratio(static_cast<double>(w.items_decoded),
                 static_cast<double>(w.items_pulled)),
           "ratio");
  out->Add("topk.combinations_tried", per_probe(w.combinations_tried),
           "count");
  out->Add("topk.combinations_per_emitted",
           Ratio(static_cast<double>(w.combinations_tried),
                 static_cast<double>(w.combinations_emitted)),
           "ratio");
  out->Add("topk.partition_probes", per_probe(w.partition_probes), "count");
  out->Add("topk.partition_fallbacks", per_probe(w.partition_fallbacks),
           "count");
  out->Add("topk.deadline_overshoot_ms", Mean(overshoot_ms), "ms");

  const trinit::obs::MetricsSnapshot snapshot = engine.MetricsSnapshot();
  const auto* builds = snapshot.Find("trinit_rdf_score_shape_builds_total");
  const auto* sort_ms = snapshot.Find("trinit_rdf_score_shape_sort_ms");
  out->Add("rdf.shape_builds", builds == nullptr ? 0.0 : builds->value,
           "count");
  out->Add("rdf.shape_sort_ms", sort_ms == nullptr ? 0.0 : sort_ms->sum, "ms");

  out->Add("openie.run_s", setup.openie_s, "s");
  out->Add("xkg.build_s", setup.xkg_build_s, "s");
  out->Add("storage.open_s", bench::Percentile(setup.open_s, 0.5), "s");
  out->Add("storage.save_s", setup.save_s, "s");
  out->Add("storage.bytes_per_triple", setup.bytes_per_triple, "B/triple");
  out->Add("core.overhead_us",
           Ratio(c.overhead_us, static_cast<double>(c.overhead_n)), "us");
  out->Add("core.write_ms", span("core.write").MeanUs() / 1e3, "ms");
  out->Add("obs.trace_overhead_pct",
           (Ratio(Ratio(c.traced_ms, static_cast<double>(c.traced)),
                  Ratio(c.untraced_ms, static_cast<double>(c.untraced))) -
            1.0) * 100.0,
           "%");
}

// The end-to-end metrics every workload reports.
struct EndToEnd {
  std::vector<double> setup_s;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double qps = 0.0;          // OK responses per second
  size_t queries = 0;        // queries attempted
  size_t untruncated = 0;    // OK responses within their deadline
  double ndcg5 = 0.0;
  double peak_rss_mb = 0.0;  // read before the checks allocate
};

void AddEndToEndMetrics(const EndToEnd& e, Outcome* out) {
  const double attempted = static_cast<double>(out->attempted);
  out->Add("setup_s", bench::Percentile(e.setup_s, 0.5), "s");
  out->Add("latency_p50_ms", e.p50_ms, "ms");
  out->Add("latency_p99_ms", e.p99_ms, "ms");
  out->Add("qps", e.qps, "1/s");
  out->Add("ok_share",
           Ratio(attempted - static_cast<double>(out->failed), attempted),
           "ratio");
  out->Add("complete_share",
           Ratio(static_cast<double>(e.untruncated),
                 static_cast<double>(e.queries)),
           "ratio");
  out->Add("ndcg5", e.ndcg5, "ndcg");
  out->Add("peak_rss_mb", e.peak_rss_mb, "MiB");
}

// Per-family latency table on stderr, for the reader of a run; returns
// the latencies of all families together.
Histogram PrintFamilies(const Stream& stream,
                        const std::vector<Histogram>& by_family,
                        const std::vector<size_t>& truncated) {
  std::fprintf(stderr, "%-16s %9s %9s %9s %9s %9s %9s\n", "family",
               "requests", "p50_ms", "p90_ms", "p99_ms", "max_ms",
               "truncated");
  Histogram all;
  for (size_t f = 0; f < stream.families.size(); ++f) {
    all.Merge(by_family[f]);
    if (by_family[f].count() == 0) continue;
    std::fprintf(stderr, "%-16s %9llu %9.3f %9.3f %9.3f %9.3f %9zu\n",
                 stream.families[f].c_str(),
                 static_cast<unsigned long long>(by_family[f].count()),
                 by_family[f].Quantile(0.5), by_family[f].Quantile(0.9),
                 by_family[f].Quantile(0.99), by_family[f].Quantile(1.0),
                 truncated[f]);
  }
  return all;
}

double Ndcg5(const Trinit& engine, const Stream& stream, const Request& r,
             const topk::TopKResult& result) {
  std::vector<int> grades;
  for (const std::string& key : eval::KeysFromResult(engine.xkg(), result)) {
    grades.push_back(stream.qrels.Grade(r.qid, key));
  }
  return eval::NdcgAtK(grades, stream.qrels.IdealGrades(r.qid), 5);
}

// --------------------------------------------------- single client

// One measured request of a single-client run.
struct Executed {
  size_t index = 0;  // into the stream
  double ms = 0.0;
  bool ok = false;
  bool hit = false;
  bool truncated = false;
  // Kept in the first pass over the stream for judged requests and for
  // every kKeepEvery-th one (reference samples), so the memory held does
  // not grow with throughput.
  Body body;
};

struct LoopResult {
  std::vector<Executed> executed;
  // Where each whole pass over the stream ended: the number of requests
  // executed by then, and the seconds since the loop started.
  std::vector<size_t> pass_end;
  std::vector<double> pass_end_s;
  size_t writes = 0;
  size_t write_errors = 0;
  double elapsed_s = 0.0;
};

// Closed loop, one client: each request is sent when the previous one
// has returned, for `seconds`. Should the stream run out, a write starts
// a new cache generation and the stream is sent again, so no request is
// answered from the cache of an earlier pass. In a traced run every
// second request of each family is traced.
LoopResult SingleClientLoop(Trinit& engine, const Stream& stream,
                            double timeout_ms, double seconds,
                            const ProbeContext* probe, Client* client) {
  LoopResult loop;
  loop.executed.reserve(stream.requests.size());
  std::vector<size_t> family_seen(stream.families.size(), 0);
  const Clock::time_point start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  for (size_t n = 0; Clock::now() < end; ++n) {
    const size_t i = n % stream.requests.size();
    if (n > 0 && i == 0) {
      loop.pass_end.push_back(n);
      loop.pass_end_s.push_back(Seconds(start));
      ++loop.writes;
      loop.write_errors += engine.AddManualRules(kWriteRule).ok() ? 0 : 1;
    }
    const Request& r = stream.requests[i];
    const bool traced =
        probe != nullptr && family_seen[r.family]++ % 2 == 1;
    Executed e;
    e.index = i;
    Result<core::QueryResponse> response =
        Send(engine, MakeRequest(r, timeout_ms), n, probe, traced, client,
             &e.ms);
    e.ok = response.ok();
    if (e.ok) {
      e.hit = response->serving.answer_hit;
      e.truncated = response->deadline_hit;
      if (n < stream.requests.size() &&
          (!r.qid.empty() || i % kKeepEvery == 0)) {
        e.body = response->result_body;
      }
    }
    loop.executed.push_back(std::move(e));
  }
  loop.elapsed_s = Seconds(start);
  return loop;
}

// Compares a seeded sample of complete answers with the exhaustive
// reference; a mismatch is a failed request.
void CheckAgainstReference(const Trinit& engine, const relax::RuleSet& rules,
                           const Stream& stream, const LoopResult& loop,
                           double timeout_ms, uint64_t seed, Outcome* out) {
  std::vector<const Executed*> candidates;
  for (const Executed& e : loop.executed) {
    if (e.body != nullptr && !e.hit && !e.truncated) candidates.push_back(&e);
  }
  Rng rng(seed ^ kWarmSalt);
  rng.Shuffle(candidates);
  size_t verified = 0;
  size_t unverified = 0;
  for (const Executed* e : candidates) {
    if (verified + unverified == kReferenceSamples) break;
    const Request& r = stream.requests[e->index];
    const core::QueryRequest request = MakeRequest(r, timeout_ms);
    core::ResolvedOptions opts = core::ResolveRequestOptions(
        engine.options().scorer, engine.options().processor, request);
    opts.processor.deadline_ms = kReferenceBudgetMs;
    Result<query::Query> parsed =
        query::Parser::Parse(r.text, &engine.xkg().dict());
    const topk::ExhaustiveProcessor reference(engine.xkg(), rules,
                                              opts.scorer, opts.processor);
    Result<topk::TopKResult> want =
        parsed.ok() ? reference.Answer(*parsed)
                    : Result<topk::TopKResult>(parsed.status());
    if (!want.ok() || want->stats.deadline_hit) {
      ++unverified;
      continue;
    }
    ++verified;
    if (!SameTopK(*e->body, *want)) {
      ++out->failed;
      Problem(out, "answers differ from the exhaustive reference: " + r.text);
    }
  }
  std::fprintf(stderr,
               "reference check: %zu verified, %zu unverified (reference "
               "over %.0f ms)\n",
               verified, unverified, kReferenceBudgetMs);
  if (verified == 0) Problem(out, "no request could be verified");
}

// Latency quantiles and throughput of a single-client run. explore's
// stream fits in a run several times over, and each of its whole passes
// sends the same queries: the figures reported are medians over those
// passes, so a pass that a disturbance of the machine slowed moves one
// value, not the result, and the cut-off last pass does not shift the
// mix. A run that finishes no pass (join) is one block.
void PassMedians(const LoopResult& loop, EndToEnd* e2e) {
  std::vector<size_t> end = loop.pass_end;
  std::vector<double> end_s = loop.pass_end_s;
  if (end.empty()) {
    end.push_back(loop.executed.size());
    end_s.push_back(loop.elapsed_s);
  }
  std::vector<double> p50, p99, qps;
  for (size_t b = 0; b < end.size(); ++b) {
    Histogram pass;
    size_t ok = 0;
    for (size_t j = b == 0 ? 0 : end[b - 1]; j < end[b]; ++j) {
      pass.Add(loop.executed[j].ms);
      ok += loop.executed[j].ok ? 1 : 0;
    }
    p50.push_back(pass.Quantile(0.5));
    p99.push_back(pass.Quantile(0.99));
    qps.push_back(Ratio(static_cast<double>(ok),
                        end_s[b] - (b == 0 ? 0.0 : end_s[b - 1])));
  }
  e2e->p50_ms = bench::Percentile(p50, 0.5);
  e2e->p99_ms = bench::Percentile(p99, 0.5);
  e2e->qps = bench::Percentile(qps, 0.5);
  std::fprintf(stderr, "blocks (qps p50_ms p99_ms):");
  for (size_t b = 0; b < qps.size(); ++b) {
    std::fprintf(stderr, " %.1f/%.4f/%.3f", qps[b], p50[b], p99[b]);
  }
  std::fprintf(stderr, "\n");
}

// explore and join: one client over a fixed world built with FromWorld.
bool RunSingleClient(const Options& o, Outcome* out) {
  const bool explore = o.workload == "explore";
  const Clock::time_point origin = Clock::now();
  const synth::World world = explore ? LargeWorld() : SmallWorld();
  const double timeout_ms = explore ? 0.0 : kJoinTimeoutMs;
  Stream stream;
  Stream warm;
  if (explore) {
    ExploreStreams(world, o.seed, kExplorePool, kWarmRequests, &stream,
                   &warm);
  } else {
    stream = JoinStream(world, o.seed, kJoinPool, "m");
    warm = JoinStream(world, o.seed ^ kWarmSalt, kWarmRequests / 3, "w");
    std::set<std::string> measured;
    for (const Request& r : stream.requests) measured.insert(r.text);
    std::erase_if(warm.requests, [&measured](const Request& r) {
      return measured.count(r.text) > 0;
    });
  }

  Tracer setup_tracer(origin);
  SetupLayers setup;
  EndToEnd e2e;
  std::optional<Trinit> engine =
      Build(world, o, setup_tracer, &setup, &e2e.setup_s, out);
  if (!engine.has_value()) return true;

  // Warm-up with requests the measured stream does not contain, so no
  // answer-cache hit leaks into the run.
  const int warm_span = setup_tracer.Begin(0, "warmup");
  Warm(*engine, warm, timeout_ms, out);
  setup_tracer.End(warm_span);

  std::unique_ptr<relax::RuleSet> rules = CopyRules(*engine);
  if (rules == nullptr) {
    Problem(out, "could not copy the rule set");
    return true;
  }
  std::optional<ProbeContext> probe;
  std::optional<Client> client;
  if (o.trace) {
    probe.emplace(*engine, *rules);
    client.emplace(origin);
  }
  const trinit::serve::ServingCache::Counters before =
      engine->serving_cache().counters();
  const LoopResult loop =
      SingleClientLoop(*engine, stream, timeout_ms, o.seconds,
                       probe ? &*probe : nullptr, client ? &*client : nullptr);
  const trinit::serve::ServingCache::Counters after =
      engine->serving_cache().counters();
  e2e.peak_rss_mb = PeakRssMb();

  // Outcome of every request.
  std::vector<Histogram> by_family(stream.families.size());
  std::vector<size_t> truncated(stream.families.size(), 0);
  std::vector<double> overshoot_ms;
  double ndcg_sum = 0.0;
  size_t judged = 0;
  size_t hits = 0;
  out->attempted += loop.writes;
  out->failed += loop.write_errors;
  for (const Executed& e : loop.executed) {
    const Request& r = stream.requests[e.index];
    ++out->attempted;
    by_family[r.family].Add(e.ms);
    if (!e.ok) {
      ++out->failed;
      continue;
    }
    hits += e.hit ? 1 : 0;
    if (e.truncated) {
      ++truncated[r.family];
      overshoot_ms.push_back(e.ms - timeout_ms);
    } else {
      ++e2e.untruncated;
    }
    if (!r.qid.empty() && e.body != nullptr) {
      ndcg_sum += Ndcg5(*engine, stream, r, *e.body);
      ++judged;
    }
  }
  PrintFamilies(stream, by_family, truncated);
  PassMedians(loop, &e2e);
  e2e.queries = loop.executed.size();
  e2e.ndcg5 = Ratio(ndcg_sum, static_cast<double>(judged));
  std::fprintf(stderr,
               "%zu requests and %zu writes in %.2f s, %zu judged, ndcg5 "
               "%.4f\n",
               loop.executed.size(), loop.writes, loop.elapsed_s, judged,
               e2e.ndcg5);

  // Checks.
  if (loop.executed.empty()) Problem(out, "no request completed");
  if (hits > 0) {
    Problem(out, o.workload + " sends distinct queries, yet " +
                     std::to_string(hits) + " hit the answer cache");
  }
  if (explore && e2e.ndcg5 < kNdcgFloor) {
    Problem(out, "ndcg5 " + std::to_string(e2e.ndcg5) +
                     " is below the floor " + std::to_string(kNdcgFloor));
  }
  CheckAgainstReference(*engine, *rules, stream, loop, timeout_ms, o.seed,
                        out);

  if (!o.trace) {
    AddEndToEndMetrics(e2e, out);
    return true;
  }
  const std::vector<const Tracer*> tracers = {&setup_tracer, &client->tracer};
  AddLayerMetrics(tracers, client->counts, setup, Deltas(before, after, 0, 0),
                  overshoot_ms, *engine, out);
  if (!WriteSpans(o.work_dir + "/spans-" + o.workload + ".jsonl", tracers)) {
    Problem(out, "could not write the span log");
  }
  return true;
}

// ---------------------------------------------------------------- hot

// Answer consistency across the hot clients, one generation at a time:
// within a generation every client's first answer for a query must be
// byte-identical, and some client must have missed on it, which is the
// fill a hit is served from. A generation is checked and dropped once
// every client has closed it, so memory does not grow with the run.
class FillLedger {
 public:
  // Per query: hash of the first answer's bytes, and whether a miss was
  // seen.
  using Firsts = std::unordered_map<size_t, std::pair<size_t, bool>>;

  explicit FillLedger(size_t clients) : clients_(clients) {}

  void Close(uint64_t generation, const Firsts& firsts) {
    trinit::MutexLock lock(mu_);
    Pending& p = pending_[generation];
    for (const auto& [q, first] : firsts) {
      auto [it, fresh] = p.firsts.try_emplace(q, first);
      if (fresh) continue;
      mismatches_ += it->second.first != first.first ? 1 : 0;
      it->second.second |= first.second;
    }
    if (++p.closed == clients_) {
      Check(p);
      pending_.erase(generation);
    }
  }

  // Checks the generations some client never saw; call after the run.
  void Finish() {
    trinit::MutexLock lock(mu_);
    for (const auto& [generation, p] : pending_) Check(p);
    pending_.clear();
  }

  size_t mismatches() const { return mismatches_; }
  size_t unfilled() const { return unfilled_; }

 private:
  struct Pending {
    Firsts firsts;
    size_t closed = 0;
  };
  void Check(const Pending& p) {
    for (const auto& [q, first] : p.firsts) unfilled_ += first.second ? 0 : 1;
  }

  const size_t clients_;
  trinit::Mutex mu_;
  std::map<uint64_t, Pending> pending_;
  size_t mismatches_ = 0;
  size_t unfilled_ = 0;
};

struct HotClient {
  explicit HotClient(Clock::time_point origin) : trace(origin) {}
  Client trace;
  size_t queries = 0;
  std::vector<Histogram> by_family;
  Histogram hits, misses;
  // Latencies and OK responses per time block of the run.
  std::vector<Histogram> blocks;
  std::vector<size_t> block_ok;
  size_t errors = 0;
  size_t mismatches = 0;
  size_t writes = 0;
  size_t write_errors = 0;
  size_t answers_invalidated = 0;
  std::vector<Body> first_body;  // per query, for NDCG
  Clock::time_point finished;

  // This client's current generation: the first answer per query, and
  // whether it missed. Every later answer must have the same bytes.
  uint64_t generation = 0;
  std::unordered_map<size_t, std::pair<Body, bool>> current;

  void Observe(uint64_t gen, size_t q, const Body& body, bool hit,
               FillLedger& ledger) {
    if (gen != generation) {
      Close(ledger);
      generation = gen;
    }
    auto [it, fresh] = current.try_emplace(q, body, !hit);
    if (fresh) return;
    if (it->second.first != body &&
        bench::AnswerBytes(*it->second.first) != bench::AnswerBytes(*body)) {
      ++mismatches;
    }
    it->second.second |= !hit;
  }
  void Close(FillLedger& ledger) {
    if (current.empty()) return;
    FillLedger::Firsts firsts;
    for (const auto& [q, entry] : current) {
      firsts[q] = {std::hash<std::string>()(bench::AnswerBytes(*entry.first)),
                   entry.second};
    }
    ledger.Close(generation, firsts);
    current.clear();
  }
};

bool RunHot(const Options& o, Outcome* out) {
  const Clock::time_point origin = Clock::now();
  const synth::World world = SmallWorld();
  const Stream pool = QueryPool(world, kHotPool);
  std::vector<core::QueryRequest> requests;
  for (const Request& r : pool.requests) requests.push_back(MakeRequest(r, 0));

  // Zipf popularity over a fixed permutation of the pool: which query
  // is hot is part of the dataset, the seed draws the request sequence.
  // (A hit's cost depends on its query's length, so a seeded
  // permutation would make throughput depend on the seed.)
  Rng rank_rng(kHotRankSeed);
  std::vector<size_t> by_rank(pool.requests.size());
  for (size_t i = 0; i < by_rank.size(); ++i) by_rank[i] = i;
  rank_rng.Shuffle(by_rank);
  const Rng::ZipfTable zipf(by_rank.size(), kZipfExponent);
  Stream warm;
  warm.families = pool.families;
  Rng warm_rng(o.seed ^ kWarmSalt);
  for (size_t i = 0; i < kWarmRequests; ++i) {
    warm.requests.push_back(pool.requests[by_rank[zipf.Sample(warm_rng)]]);
  }

  Tracer setup_tracer(origin);
  SetupLayers setup;
  EndToEnd e2e;
  const std::string path = o.work_dir + "/hot.snapshot";
  {
    // The engine that writes the snapshot: built (with the set-up
    // spans), warmed so the lazily built score-order shapes are in the
    // file, saved.
    Result<Trinit> source = BuildTraced(world, setup_tracer, &setup);
    if (!source.ok()) {
      Problem(out, "engine build: " + source.status().ToString());
      return true;
    }
    Warm(*source, warm, 0.0, out);
    const int span = setup_tracer.Begin(0, "storage.save");
    const trinit::Status saved = source->Save(path);
    setup_tracer.End(span);
    setup.save_s = setup_tracer.spans()[span].duration_us() / 1e6;
    if (!saved.ok()) {
      Problem(out, "snapshot save: " + saved.ToString());
      return true;
    }
  }
  // hot's peak memory covers the serving engine: snapshot opens, warm-up
  // and the run, not the build of the engine that wrote the snapshot.
  ResetPeakRss();
  std::optional<Trinit> engine;
  for (int r = 0; r < kOpenRepeats; ++r) {
    engine.reset();
    const int span = setup_tracer.Begin(0, "storage.open");
    Result<Trinit> opened = Trinit::Open(path);
    setup_tracer.End(span);
    const double open_s = setup_tracer.spans()[span].duration_us() / 1e6;
    e2e.setup_s.push_back(open_s);
    setup.open_s.push_back(open_s);
    if (!opened.ok()) {
      Problem(out, "snapshot open: " + opened.status().ToString());
      return true;
    }
    engine.emplace(std::move(opened).value());
  }
  std::error_code ignored;
  const double file_bytes =
      static_cast<double>(std::filesystem::file_size(path, ignored));
  std::filesystem::remove(path, ignored);
  setup.bytes_per_triple =
      Ratio(file_bytes, static_cast<double>(engine->xkg().kg_triple_count() +
                                            engine->xkg().extraction_triple_count()));
  Warm(*engine, warm, 0.0, out);

  // The measured requests start in a fresh generation.
  if (!engine->AddManualRules(kWriteRule).ok()) {
    Problem(out, "the write rule was rejected");
    return true;
  }
  std::unique_ptr<relax::RuleSet> rules = CopyRules(*engine);
  if (rules == nullptr) {
    Problem(out, "could not copy the rule set");
    return true;
  }
  const ProbeContext probe(*engine, *rules);

  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const size_t clients = std::min(kMaxClients, hw);
  // The run is cut into blocks of about a second; the latency quantiles
  // and throughput reported are medians over the blocks, so a short
  // disturbance of the machine moves one block, not the result.
  const size_t blocks = std::max<size_t>(1, static_cast<size_t>(o.seconds));
  const double block_s = o.seconds / static_cast<double>(blocks);
  std::vector<std::unique_ptr<HotClient>> state;
  for (size_t c = 0; c < clients; ++c) {
    state.push_back(std::make_unique<HotClient>(origin));
    state.back()->by_family.resize(pool.families.size());
    state.back()->first_body.resize(pool.requests.size());
    state.back()->blocks.resize(blocks);
    state.back()->block_ok.resize(blocks);
  }
  FillLedger ledger(clients);
  const trinit::serve::ServingCache::Counters before =
      engine->serving_cache().counters();
  const Clock::time_point start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(o.seconds));

  auto run_client = [&](size_t c) {
    HotClient& me = *state[c];
    Rng client_rng(o.seed * 0x100000001b3ULL + c);
    size_t last_insertions = before.answer_insertions;
    for (size_t n = 0; Clock::now() < end; ++n) {
      if (c == 0 && n > 0 && n % kWriteEvery == 0) {
        if (o.trace) {
          const size_t insertions =
              engine->serving_cache().counters().answer_insertions;
          me.answers_invalidated += insertions - last_insertions;
          last_insertions = insertions;
        }
        const int span = me.trace.tracer.Begin(n, "core.write");
        const bool ok = engine->AddManualRules(kWriteRule).ok();
        me.trace.tracer.End(span);
        ++me.writes;
        me.write_errors += ok ? 0 : 1;
      }
      const size_t q = by_rank[zipf.Sample(client_rng)];
      double ms = 0.0;
      Result<core::QueryResponse> response =
          Send(*engine, requests[q], n, o.trace ? &probe : nullptr,
               o.trace && n % kHotTraceEvery == kHotTraceEvery - 1 &&
                   me.trace.counts.traced < kHotTracedPerClient,
               &me.trace, &ms);
      ++me.queries;
      me.by_family[pool.requests[q].family].Add(ms);
      const size_t block = std::min(
          blocks - 1, static_cast<size_t>(Seconds(start) / block_s));
      me.blocks[block].Add(ms);
      if (!response.ok()) {
        ++me.errors;
        continue;
      }
      ++me.block_ok[block];
      (response->serving.answer_hit ? me.hits : me.misses).Add(ms);
      me.Observe(response->serving.generation, q, response->result_body,
                 response->serving.answer_hit, ledger);
      if (me.first_body[q] == nullptr) me.first_body[q] = response->result_body;
    }
    me.Close(ledger);
    me.finished = Clock::now();
  };
  std::vector<std::thread> threads;
  for (size_t c = 1; c < clients; ++c) threads.emplace_back(run_client, c);
  run_client(0);
  for (std::thread& t : threads) t.join();
  const trinit::serve::ServingCache::Counters after =
      engine->serving_cache().counters();
  e2e.peak_rss_mb = PeakRssMb();

  // Merge the clients.
  Client merged(origin);
  std::vector<Histogram> by_family(pool.families.size());
  Histogram hits, misses;
  std::vector<Histogram> by_block(blocks);
  std::vector<size_t> ok_by_block(blocks, 0);
  std::vector<Body> first_body(pool.requests.size());
  size_t writes = 0;
  size_t answers_invalidated = 0;
  Clock::time_point finished = start;
  for (const auto& me : state) {
    for (size_t f = 0; f < by_family.size(); ++f) {
      by_family[f].Merge(me->by_family[f]);
    }
    hits.Merge(me->hits);
    misses.Merge(me->misses);
    for (size_t b = 0; b < blocks; ++b) {
      by_block[b].Merge(me->blocks[b]);
      ok_by_block[b] += me->block_ok[b];
    }
    out->attempted += me->queries + me->writes;
    out->failed += me->errors + me->write_errors + me->mismatches;
    e2e.queries += me->queries;
    e2e.untruncated += me->queries - me->errors;
    writes += me->writes;
    answers_invalidated += me->answers_invalidated;
    merged.counts.Merge(me->trace.counts);
    finished = std::max(finished, me->finished);
    for (size_t q = 0; q < first_body.size(); ++q) {
      if (first_body[q] == nullptr) first_body[q] = me->first_body[q];
    }
  }
  ledger.Finish();
  out->failed += ledger.mismatches();
  const size_t unfilled = ledger.unfilled();
  std::vector<double> p50, p99, qps;
  for (size_t b = 0; b < blocks; ++b) {
    if (by_block[b].count() == 0) continue;
    p50.push_back(by_block[b].Quantile(0.5));
    p99.push_back(by_block[b].Quantile(0.99));
    qps.push_back(static_cast<double>(ok_by_block[b]) / block_s);
  }
  e2e.p50_ms = bench::Percentile(p50, 0.5);
  e2e.p99_ms = bench::Percentile(p99, 0.5);
  e2e.qps = bench::Percentile(qps, 0.5);
  std::fprintf(stderr, "blocks (qps p50_us p99_us):");
  for (size_t b = 0; b < qps.size(); ++b) {
    std::fprintf(stderr, " %.0f/%.3f/%.3f", qps[b], p50[b] * 1e3, p99[b] * 1e3);
  }
  std::fprintf(stderr, "\n");
  const double elapsed_s =
      std::chrono::duration<double>(finished - start).count();
  double ndcg_sum = 0.0;
  size_t judged = 0;
  for (size_t q = 0; q < first_body.size(); ++q) {
    if (first_body[q] == nullptr) continue;
    ndcg_sum += Ndcg5(*engine, pool, pool.requests[q], *first_body[q]);
    ++judged;
  }
  e2e.ndcg5 = Ratio(ndcg_sum, static_cast<double>(judged));
  PrintFamilies(pool, by_family, std::vector<size_t>(by_family.size(), 0));
  std::fprintf(stderr,
               "answer hits %llu (p50 %.4f ms, p99 %.4f ms), misses %llu "
               "(p50 %.4f ms, p99 %.4f ms, share %.4f)\n",
               static_cast<unsigned long long>(hits.count()),
               hits.Quantile(0.5), hits.Quantile(0.99),
               static_cast<unsigned long long>(misses.count()),
               misses.Quantile(0.5), misses.Quantile(0.99),
               Ratio(static_cast<double>(misses.count()),
                     static_cast<double>(hits.count() + misses.count())));
  std::fprintf(stderr,
               "%zu clients, %zu queries and %zu writes in %.2f s, answer "
               "hit ratio %.4f, %zu distinct queries, ndcg5 %.4f\n",
               clients, e2e.queries, writes, elapsed_s,
               Deltas(before, after, writes, 0).answer_hit_ratio, judged,
               e2e.ndcg5);

  if (out->failed > 0) {
    Problem(out, std::to_string(out->failed) +
                     " failed operations or answers that differ from their "
                     "generation's fill");
  }
  if (unfilled > 0) {
    Problem(out, std::to_string(unfilled) +
                     " (generation, query) pairs were served only from the "
                     "cache, with no fill in that generation");
  }
  if (writes == 0) Problem(out, "no write was sent");

  if (!o.trace) {
    AddEndToEndMetrics(e2e, out);
    return true;
  }
  std::vector<const Tracer*> tracers = {&setup_tracer};
  for (const auto& me : state) tracers.push_back(&me->trace.tracer);
  AddLayerMetrics(tracers, merged.counts, setup,
                  Deltas(before, after, writes, answers_invalidated), {},
                  *engine, out);
  if (!WriteSpans(o.work_dir + "/spans-hot.jsonl", tracers)) {
    Problem(out, "could not write the span log");
  }
  return true;
}

}  // namespace

bool RunWorkload(const Options& options, Outcome* outcome) {
  if (options.workload == "hot") return RunHot(options, outcome);
  if (options.workload == "explore" || options.workload == "join") {
    return RunSingleClient(options, outcome);
  }
  return false;
}

}  // namespace perfbench
