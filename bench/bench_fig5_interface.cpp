// Exhibit F5 — Figure 5 of the paper (screenshot): the TriniT query
// interface. Headless reproduction of the same session: the user C
// affiliation query with user-supplied rules 3 and 4, a result-count
// setting, and the ranked answer list.

#include <cstdio>

#include "bench_util.h"
#include "query/parser.h"
#include "util/string_util.h"
#include "util/table.h"

int main() {
  using namespace trinit;

  std::printf("[F5] Figure 5: TriniT query interface (headless)\n\n");

  // The screenshot shows: triple patterns, user-defined relaxation
  // rules (rules 3 and 4 of Figure 4), and the number of results.
  auto engine = core::Trinit::Open(bench::BuildPaperXkg());
  if (!engine.ok()) return 1;

  const char* user_rules =
      "rule3: ?x affiliation ?y => ?x affiliation ?z ; ?z 'housed in' ?y "
      "@ 0.8\n"
      "rule4: ?x affiliation ?y => ?x 'lectured at' ?y @ 0.7\n";
  const char* query_text =
      "SELECT ?x WHERE AlbertEinstein affiliation ?x ; ?x member "
      "IvyLeague";
  const int num_results = 10;

  std::printf("query patterns:\n  AlbertEinstein  affiliation  ?x\n"
              "  ?x  member  IvyLeague\n");
  std::printf("user relaxation rules:\n%s", user_rules);
  std::printf("number of results: %d\n\n", num_results);

  if (!engine->AddManualRules(user_rules).ok()) return 1;
  auto q = query::Parser::Parse(query_text, &engine->xkg().dict());
  if (!q.ok()) return 1;
  auto response =
      engine->Execute(core::QueryRequest::Parsed(*q, num_results));
  if (!response.ok()) return 1;
  const topk::TopKResult& result = response->result();

  AsciiTable answers({"rank", "?x", "score", "via relaxation"});
  for (size_t i = 0; i < result.answers.size(); ++i) {
    answers.AddRow({std::to_string(i + 1),
                    engine->RenderAnswer(result, i),
                    FormatDouble(result.answers[i].score, 3),
                    result.answers[i].used_relaxation() ? "yes" : "no"});
  }
  std::printf("answers:\n%s\n", answers.ToString().c_str());

  std::printf("processing: %zu/%zu per-pattern relaxations opened, %zu "
              "index-list items pulled, %zu join combinations\n",
              response->stats.alternatives_opened,
              response->stats.alternatives_total,
              response->stats.items_pulled,
              response->stats.combinations_emitted);

  // The interface also offers auto-completion; emulate the lookup that
  // backs it.
  std::printf("\nauto-completion for \"Prince\": ");
  engine->xkg().dict().ForEach([&](rdf::TermId id) {
    std::string_view label = engine->xkg().dict().label(id);
    if (label.rfind("Prince", 0) == 0) {
      std::printf("%.*s ", static_cast<int>(label.size()), label.data());
    }
  });
  std::printf("\n");
  return 0;
}
