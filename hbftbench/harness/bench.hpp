// Shared declarations of the benchmark harness: run options, the result a
// run reports, and the in-process workloads.
#ifndef HBFT_BENCH_BENCH_HPP_
#define HBFT_BENCH_BENCH_HPP_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace hbft_bench {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Test hook: "checksum" or "payload" makes the benchmark expect a wrong
  // value, so its own test can show that a wrong output fails the run.
  std::string corrupt;
};

struct RunOutcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // Failed output checks.
  Metrics metrics;                  // End-to-end and per-layer, by name.

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      errors.push_back(what);
    }
  }
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

// Runs an untimed warm-up pass, then timed passes until `seconds` have
// elapsed (at least kMinTimedPasses). `pass(timed)` does one pass. Returns
// the id of the first span a timed pass recorded.

constexpr int kMinTimedPasses = 3;
template <typename Pass>
size_t RunPasses(const RunOptions& options, SpanRecorder* recorder, Pass pass) {
  {
    Timed warmup(recorder, "pass.warmup");
    pass(false);
  }
  const size_t first_timed_span = recorder->spans().size();
  const double start = WallSeconds();
  int passes = 0;
  while (passes < kMinTimedPasses || WallSeconds() - start < options.seconds) {
    Timed timed(recorder, "pass");
    pass(true);
    ++passes;
  }
  return first_timed_span;
}

// Median duration (seconds) of the named spans recorded from `first_span` on.
inline double MedianSpan(const SpanRecorder& recorder, const std::string& name,
                         size_t first_span) {
  std::vector<double> out;
  const std::vector<Span>& spans = recorder.spans();
  for (size_t i = first_span; i < spans.size(); ++i) {
    if (spans[i].name == name) {
      out.push_back(spans[i].seconds());
    }
  }
  return Median(out);
}

// The in-process workloads (serve-echo's client lives in run.py; the harness
// contributes its world-build probe).
RunOutcome RunCpuEpoch1k(const RunOptions& options, SpanRecorder* recorder);
RunOutcome RunEchoRepair(const RunOptions& options, SpanRecorder* recorder);
RunOutcome RunFleetStorm(const RunOptions& options, SpanRecorder* recorder);
RunOutcome ProbeServeBuild(const RunOptions& options, SpanRecorder* recorder);

// The benchmark's own test: the fleet-storm configuration must give the same
// fingerprint on two worker threads as the timed run on one.
RunOutcome CheckFleetThreadIdentity(const RunOptions& options);

}  // namespace hbft_bench

#endif  // HBFT_BENCH_BENCH_HPP_
