// Exhibit E2 — the paper's system setting (§5): "Our XKG consists of a
// total of 440 million distinct triples: about 50 million from Yago2s,
// our KG, and 390 million from the extractions from ClueWeb" — a
// ~1:7.8 KG:extraction ratio.
//
// We sweep scaled-down worlds, report the achieved composition and the
// cost of building and querying the XKG at each scale.

#include <cstdio>

#include "bench_util.h"
#include "query/parser.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/timer.h"

int main() {
  using namespace trinit;

  std::printf("[E2] XKG composition and scaling (paper: 50M KG + 390M "
              "extraction = 440M triples, ratio 7.8)\n\n");

  AsciiTable table({"target", "entities", "KG triples", "ext triples",
                    "ratio", "build s", "rules", "query ms (p50-ish)"});

  for (size_t target : {2000, 8000, 24000}) {
    synth::WorldSpec spec = synth::WorldSpec::Scaled(target, /*seed=*/3);
    // Crank the corpus so the extraction layer dominates, as in the
    // paper's 1:7.8 composition.
    spec.sentences_per_fact = 4.0;
    synth::World world = synth::KgGenerator::Generate(spec);

    WallTimer build_timer;
    core::Trinit::BuildReport report;
    auto engine = core::Trinit::FromWorld(world, {}, &report);
    if (!engine.ok()) return 1;
    double build_s = build_timer.ElapsedSeconds();

    // Query cost: a two-pattern join with relaxation over this XKG.
    const auto& unis = world.OfClass(synth::EntityClass::kUniversity);
    std::string query_text = "?x 'works at' " +
                             world.entities[unis[0]].name;
    WallTimer query_timer;
    const int reps = 5;
    for (int i = 0; i < reps; ++i) {
      auto r = engine->Execute(core::QueryRequest::Text(query_text, 10));
      if (!r.ok()) return 1;
    }
    double query_ms = query_timer.ElapsedMillis() / reps;

    double ratio =
        report.kg_triples > 0
            ? static_cast<double>(report.extraction_triples) /
                  static_cast<double>(report.kg_triples)
            : 0.0;
    table.AddRow(
        {WithThousands(static_cast<long long>(target)),
         WithThousands(static_cast<long long>(world.entities.size())),
         WithThousands(static_cast<long long>(report.kg_triples)),
         WithThousands(static_cast<long long>(report.extraction_triples)),
         FormatDouble(ratio, 2), FormatDouble(build_s, 2),
         std::to_string(report.rules_mined), FormatDouble(query_ms, 2)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("shape check: the extraction layer grows into a multiple "
              "of the KG layer as corpus redundancy rises, approaching "
              "the paper's text-dominated composition.\n");
  return 0;
}
