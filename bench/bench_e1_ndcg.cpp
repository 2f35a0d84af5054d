// Exhibit E1 — the paper's quantitative evaluation (§4): "On a
// challenging set of 70 entity-relationship queries, we achieve an
// average NDCG at rank 5 of 0.775, with the next best state-of-the-art
// system achieving 0.419."
//
// We regenerate the experiment on the synthetic world: 70 ER queries
// with programmatic qrels, TriniT against three baselines. The absolute
// numbers differ (different KG, different judges); the *shape* — TriniT
// far ahead of every non-relaxing system — is the reproduction target.
//
//   ./build/bench/bench_e1_ndcg [out.json]   (default: BENCH_E1.json)
//
// Writes every system's quality metrics (deterministic; no wall-times)
// and exits 1 when answer quality regresses: TriniT NDCG@5 below
// kMinRatio x the next best system, or more than kNdcg5Slack below the
// committed kPinnedNdcg5.

#include <algorithm>
#include <cstdio>

#include "baselines/exact_engine.h"
#include "baselines/keyword_engine.h"
#include "bench_util.h"
#include "eval/runner.h"
#include "query/parser.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

// TriniT NDCG@5 on this workload, as printed and committed in
// BENCH_E1.json. Code deletions must not cost answer quality: a run
// more than kNdcg5Slack below it fails.
constexpr double kPinnedNdcg5 = 0.690;
constexpr double kNdcg5Slack = 0.01;
// The paper's shape: TriniT well ahead of the next best system.
constexpr double kMinRatio = 1.5;

}  // namespace

int main(int argc, char** argv) {
  using namespace trinit;
  const char* out_path =
      bench::ParseBenchArgs(argc, argv, "BENCH_E1.json").out_path;

  std::printf("[E1] NDCG@5 on 70 entity-relationship queries\n\n");

  synth::World world = bench::EvalWorld();
  auto engine = core::Trinit::FromWorld(world);
  if (!engine.ok()) return 1;

  // KG-only condition: same world, extraction layer withheld.
  xkg::XkgBuilder kg_builder;
  synth::KgGenerator::PopulateKg(world, &kg_builder);
  auto kg_only = kg_builder.Build();
  if (!kg_only.ok()) return 1;

  baselines::ExactEngine kg_exact(*kg_only, {});
  baselines::ExactEngine xkg_exact(engine->xkg(), {});
  baselines::KeywordEngine keyword(engine->xkg(), {});

  eval::WorkloadGenerator::Options wopts;
  wopts.num_queries = 70;
  eval::Workload workload = eval::WorkloadGenerator::Generate(world, wopts);
  size_t judged = 0;
  for (const auto& q : workload.queries) {
    judged += workload.qrels.RelevantCount(q.id);
  }
  std::printf("workload: %zu queries, %zu judged answers\n\n",
              workload.queries.size(), judged);

  // All four systems ride the unified core::Engine interface: each row
  // is a display name + engine pointer, parsing and key extraction are
  // the runner's job.
  std::vector<eval::EngineUnderTest> systems = {
      {"TriniT (relax + XKG)", &engine.value(), {}},
      {"XKG exact (no relax)", &xkg_exact, {}},
      {"KG exact (SPARQL-ish)", &kg_exact, {}},
      {"Keyword (SLQ-ish)", &keyword, {}},
  };

  auto reports = eval::Runner::Run(workload, systems, 10);

  AsciiTable table({"system", "NDCG@5", "NDCG@10", "MAP", "P@1", "MRR",
                    "answered", "ms/query"});
  for (const auto& report : reports) {
    table.AddRow({report.name, FormatDouble(report.ndcg5, 3),
                  FormatDouble(report.ndcg10, 3),
                  FormatDouble(report.map, 3), FormatDouble(report.p1, 3),
                  FormatDouble(report.mrr, 3),
                  FormatDouble(report.answered, 2),
                  FormatDouble(report.mean_latency_ms, 1)});
  }
  std::printf("%s\n", table.ToString().c_str());

  // Per-archetype breakdown for the winning system.
  const auto& trinit_report = reports[0];
  AsciiTable archetypes({"archetype", "TriniT NDCG@5"});
  for (size_t i = 0; i < trinit_report.archetypes.size(); ++i) {
    archetypes.AddRow({trinit_report.archetypes[i],
                       FormatDouble(trinit_report.ndcg5_by_archetype[i],
                                    3)});
  }
  std::printf("%s\n", archetypes.ToString().c_str());

  const double next_best =
      std::max({reports[1].ndcg5, reports[2].ndcg5, reports[3].ndcg5});
  const double ratio = reports[0].ndcg5 / std::max(next_best, 1e-9);
  std::printf("paper: TriniT 0.775 vs next best 0.419 (1.85x). "
              "measured: %.3f vs %.3f (%.2fx next best).\n",
              reports[0].ndcg5, next_best, ratio);

  const bool ratio_ok = ratio >= kMinRatio;
  const bool ndcg5_ok = reports[0].ndcg5 >= kPinnedNdcg5 - kNdcg5Slack;

  FILE* json = std::fopen(out_path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"e1_ndcg\",\n  \"queries\": %zu,\n"
               "  \"judged_answers\": %zu,\n  \"systems\": [\n",
               workload.queries.size(), judged);
  for (size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    std::fprintf(json,
                 "    {\"system\": \"%s\", \"ndcg5\": %.6f, "
                 "\"ndcg10\": %.6f, \"map\": %.6f, \"p1\": %.6f, "
                 "\"mrr\": %.6f, \"answered\": %.6f}%s\n",
                 bench::JsonEscape(r.name).c_str(), r.ndcg5, r.ndcg10, r.map,
                 r.p1, r.mrr, r.answered,
                 i + 1 < reports.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"totals\": {\"trinit_ndcg5\": %.6f, "
               "\"next_best_ndcg5\": %.6f, \"ratio\": %.6f, "
               "\"pinned_ndcg5\": %.3f, \"ratio_ok\": %s, "
               "\"ndcg5_ok\": %s}\n}\n",
               reports[0].ndcg5, next_best, ratio, kPinnedNdcg5,
               ratio_ok ? "true" : "false", ndcg5_ok ? "true" : "false");
  std::fclose(json);
  std::printf("wrote %s\n", out_path);

  if (!ratio_ok) {
    std::fprintf(stderr,
                 "E1 REGRESSION: TriniT NDCG@5 is %.2fx the next best "
                 "(< %.1fx)\n",
                 ratio, kMinRatio);
    return 1;
  }
  if (!ndcg5_ok) {
    std::fprintf(stderr,
                 "E1 REGRESSION: TriniT NDCG@5 %.3f is more than %.2f "
                 "below the pinned %.3f\n",
                 reports[0].ndcg5, kNdcg5Slack, kPinnedNdcg5);
    return 1;
  }
  return 0;
}
