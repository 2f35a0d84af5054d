#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Measurement plumbing shared by the workloads: latency histograms, peak
// memory, the span recorder of traced runs, answer comparison, and the
// result line. Seeded draws use the engine's `trinit::Rng`; percentiles
// and `AnswerBytes` come from the engine's bench utilities.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "topk/topk_processor.h"
#include "util/random.h"

namespace perfbench {

namespace bench = trinit::bench;
namespace topk = trinit::topk;

using trinit::Rng;

using Clock = std::chrono::steady_clock;

inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& values);

/// Latency histogram with log-spaced buckets 1 % wide from 100 ns to
/// about 5 minutes. Its memory is fixed, so the benchmark's own
/// footprint does not grow with the engine's throughput.
class Histogram {
 public:
  Histogram();
  void Add(double ms);
  void Merge(const Histogram& other);
  uint64_t count() const { return count_; }
  /// Quantile `q` in [0, 1], interpolated within its bucket (error
  /// under 0.5 %); 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

/// Peak resident set of this process, in MiB (VmHWM).
double PeakRssMb();
/// Returns freed heap to the system and restarts the peak at the current
/// resident set, so `PeakRssMb` covers only what runs after the call.
void ResetPeakRss();

/// The engine's equality contract against the exhaustive reference
/// (tests/topk/processor_test.cc): identical nano-rounded score
/// sequences, and identical answer sets strictly above the k-th score.
/// Answers tied at the k-th score may be a different subset of the tie.
bool SameTopK(const topk::TopKResult& got, const topk::TopKResult& want);

/// One timed interval of a traced request. Spans of one request share
/// `request`; `parent` is the index of the enclosing span in the same
/// recorder, or -1.
struct Span {
  uint64_t request = 0;
  int parent = -1;
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  double duration_us() const { return end_us - start_us; }
};

/// In-memory span recorder, one per client thread; written out once
/// the run ends.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}
  int Begin(uint64_t request, const char* name, int parent = -1);
  void End(int span);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Writes every span as one JSON object per line.
bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run reports: the result line's fields plus human-readable
/// reasons for every failed check.
struct Outcome {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  bool correct() const { return failed == 0 && problems.empty(); }
  /// Records a metric. JSON has no NaN or infinity: a value that could
  /// not be computed reads 0 and fails the run.
  void Add(std::string name, double value, std::string unit);
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(const Outcome& outcome);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
