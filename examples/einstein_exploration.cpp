// Deep walkthrough of the paper's running example: every Figure 2
// query, with and without relaxation, plus full answer explanations and
// query suggestions — the demo experience (paper §5) as a CLI.
//
//   ./build/examples/einstein_exploration

#include <cstdio>

#include "core/trinit.h"
#include "query/parser.h"
#include "xkg/xkg_builder.h"

namespace {

using trinit::core::Trinit;

trinit::xkg::Xkg BuildPaperXkg() {
  trinit::xkg::XkgBuilder b;
  b.AddKgFact("AlbertEinstein", "bornIn", "Ulm");
  b.AddKgFact("Ulm", "locatedIn", "Germany");
  b.AddKgFact("AlbertEinstein", "bornOn", "1879-03-14", true);
  b.AddKgFact("AlfredKleiner", "hasStudent", "AlbertEinstein");
  b.AddKgFact("AlbertEinstein", "affiliation", "IAS");
  b.AddKgFact("PrincetonUniversity", "member", "IvyLeague");
  b.AddKgFact("Germany", "type", "country");
  b.AddKgFact("Ulm", "type", "city");
  b.AddExtraction("AlbertEinstein", true, "won Nobel for",
                  "discovery of the photoelectric effect", false, 0.8f,
                  {1, 0,
                   "Einstein won a Nobel for his discovery of the "
                   "photoelectric effect.",
                   0.8});
  b.AddExtraction("IAS", true, "housed in", "PrincetonUniversity", true,
                  0.9f, {2, 3, "The IAS is housed in Princeton.", 0.9});
  b.AddExtraction("AlbertEinstein", true, "lectured at",
                  "PrincetonUniversity", true, 0.7f,
                  {3, 1, "Einstein lectured at Princeton University.", 0.7});
  b.AddExtraction("AlbertEinstein", true, "met his teacher", "Prof. Kleiner",
                  false, 0.5f,
                  {4, 2, "Einstein met his teacher Prof. Kleiner.", 0.5});
  auto r = b.Build();
  if (!r.ok()) std::exit(1);
  return std::move(r).value();
}

void Explore(Trinit& engine, const char* user, const char* question,
             const char* query_text) {
  std::printf("\n================================================\n");
  std::printf("User %s: \"%s\"\n", user, question);
  std::printf("Query: %s\n", query_text);

  auto parsed =
      trinit::query::Parser::Parse(query_text, &engine.xkg().dict());
  if (!parsed.ok()) {
    std::printf("parse error: %s\n", parsed.status().ToString().c_str());
    return;
  }

  // First: what a strict SPARQL endpoint would return.
  trinit::core::TrinitOptions strict = engine.options();
  auto exact = [&]() {
    trinit::topk::ProcessorOptions opts;
    opts.k = 5;
    opts.enable_relaxation = false;
    trinit::relax::RuleSet no_rules;
    trinit::topk::TopKProcessor processor(engine.xkg(), no_rules, {}, opts);
    return processor.Answer(*parsed);
  }();
  std::printf("  without relaxation: %zu answer(s)\n",
              exact.ok() ? exact->answers.size() : 0);

  // Then TriniT.
  auto response =
      engine.Execute(trinit::core::QueryRequest::Parsed(*parsed, 5));
  if (!response.ok()) {
    std::printf("  error: %s\n", response.status().ToString().c_str());
    return;
  }
  const trinit::topk::TopKResult& result = response->result();
  std::printf("  with TriniT:        %zu answer(s)\n", result.answers.size());
  for (size_t i = 0; i < result.answers.size(); ++i) {
    std::printf("\n%s", engine.Explain(result, i).ToString().c_str());
  }

  auto suggestions = engine.Suggest(*parsed, result);
  if (!suggestions.empty()) {
    std::printf("\n  Suggestions:\n");
    for (const auto& suggestion : suggestions) {
      std::printf("   - %s\n", suggestion.message.c_str());
    }
  }
}

}  // namespace

int main() {
  auto engine = Trinit::Open(BuildPaperXkg());
  if (!engine.ok()) return 1;
  if (!engine
           ->AddManualRules(
               "rule1: ?x bornIn ?y ; ?y type country => ?x bornIn ?z ; "
               "?z type city ; ?z locatedIn ?y @ 1.0\n"
               "rule2: ?x hasAdvisor ?y => ?y hasStudent ?x @ 1.0\n"
               "rule3: ?x affiliation ?y => ?x affiliation ?z ; ?z "
               "'housed in' ?y @ 0.8\n"
               "rule4: ?x affiliation ?y => ?x 'lectured at' ?y @ 0.7\n"
               "geo: ?x bornIn ?y => ?x bornIn ?z ; ?z locatedIn ?y @ "
               "0.9\n")
           .ok()) {
    return 1;
  }

  std::printf("TriniT — exploratory querying of the Figure 1+3 XKG\n");

  Explore(*engine, "A", "Who was born in Germany?", "?x bornIn Germany");
  Explore(*engine, "B", "Who was the advisor of Albert Einstein?",
          "AlbertEinstein hasAdvisor ?x");
  Explore(*engine, "C", "Ivy League university Einstein was affiliated "
          "with",
          "SELECT ?x WHERE AlbertEinstein affiliation ?x ; ?x member "
          "IvyLeague");
  Explore(*engine, "D", "What did Albert Einstein win a Nobel prize for?",
          "AlbertEinstein 'won nobel for' ?x");

  return 0;
}
