// The TriniT benchmark: one seeded workload per invocation.
//
//   perfbench --workload explore|hot|join --seed N --seconds S --trace 0|1
//             --work-dir DIR
//
// Progress and per-family tables go to stderr. The last line of stdout
// is the result: {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics, or with --trace 1 the per-layer metrics of a
// traced run (spans written to DIR/spans-<workload>.jsonl). Exits 1
// when a correctness check fails, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Options options;
  bool usage_error = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage_error = true;
      break;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      usage_error = true;
    }
  }
  if (usage_error || options.work_dir.empty() || !(options.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload explore|hot|join --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR\n");
    return 2;
  }
  perfbench::Outcome outcome;
  if (!perfbench::RunWorkload(options, &outcome)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  std::printf("%s\n", perfbench::ResultJson(outcome).c_str());
  return outcome.correct() ? 0 : 1;
}
