#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

struct Options {
  std::string workload;  ///< explore, hot or join
  uint64_t seed = 1;
  double seconds = 10.0;
  /// A traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Directory for the snapshot file and the span log.
  std::string work_dir;
};

/// Runs one workload and fills `outcome` (metrics, attempted and failed
/// operations, failed checks). False when the workload is unknown.
bool RunWorkload(const Options& options, Outcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
