#include "harness.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>

namespace perfbench {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

namespace {
constexpr double kHistogramMinMs = 1e-4;
constexpr double kHistogramGrowth = 1.01;
constexpr size_t kHistogramBuckets = 2400;
}  // namespace

Histogram::Histogram() : buckets_(kHistogramBuckets, 0) {}

void Histogram::Add(double ms) {
  const double steps =
      std::log(std::max(ms, kHistogramMinMs) / kHistogramMinMs) /
      std::log(kHistogramGrowth);
  ++buckets_[std::min(static_cast<size_t>(steps), kHistogramBuckets - 1)];
  ++count_;
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  uint64_t below = 0;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    if (rank < static_cast<double>(below + buckets_[i])) {
      // Spread the bucket's samples evenly over its log-width.
      const double within = (rank - static_cast<double>(below) + 0.5) /
                            static_cast<double>(buckets_[i]);
      return kHistogramMinMs *
             std::pow(kHistogramGrowth, static_cast<double>(i) + within);
    }
    below += buckets_[i];
  }
  return kHistogramMinMs *
         std::pow(kHistogramGrowth, static_cast<double>(kHistogramBuckets));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  malloc_trim(0);
  // Writing 5 to clear_refs resets VmHWM to the current resident set.
  std::ofstream("/proc/self/clear_refs") << "5";
}

namespace {

std::set<std::string> AboveLastScore(const topk::TopKResult& r) {
  std::set<std::string> keys;
  if (r.answers.empty()) return keys;
  const long long last = std::llround(r.answers.back().score * 1e9);
  for (const topk::Answer& answer : r.answers) {
    if (std::llround(answer.score * 1e9) == last) continue;
    std::string key;
    for (size_t i = 0; i < r.projection.size(); ++i) {
      key += std::to_string(
          answer.binding.Get(static_cast<trinit::query::VarId>(i)));
      key.push_back('|');
    }
    keys.insert(std::move(key));
  }
  return keys;
}

}  // namespace

bool SameTopK(const topk::TopKResult& got, const topk::TopKResult& want) {
  if (got.answers.size() != want.answers.size()) return false;
  for (size_t i = 0; i < got.answers.size(); ++i) {
    if (std::llround(got.answers[i].score * 1e9) !=
        std::llround(want.answers[i].score * 1e9)) {
      return false;
    }
  }
  return AboveLastScore(got) == AboveLastScore(want);
}

int Tracer::Begin(uint64_t request, const char* name, int parent) {
  Span span;
  span.request = request;
  span.parent = parent;
  span.name = name;
  span.start_us = MillisSince(origin_) * 1e3;
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int span) {
  spans_[static_cast<size_t>(span)].end_us = MillisSince(origin_) * 1e3;
}

bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t t = 0; t < tracers.size(); ++t) {
    const std::vector<Span>& spans = tracers[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out,
                   "{\"client\":%zu,\"id\":%zu,\"parent\":%d,\"request\":%llu,"
                   "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                   t, i, s.parent, static_cast<unsigned long long>(s.request),
                   s.name, s.start_us, s.end_us);
    }
  }
  return std::fclose(out) == 0;
}

void Outcome::Add(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) {
    problems.push_back(name + " is not a finite number");
    value = 0.0;
  }
  metrics.push_back({std::move(name), value, std::move(unit)});
}

std::string ResultJson(const Outcome& outcome) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (outcome.correct() ? "true" : "false")
     << ", \"attempted\": " << outcome.attempted
     << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    os << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
       << m.value << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
