// hbft_bench: runs one benchmark workload in this process and prints its
// result as one JSON line.
//
//   hbft_bench --workload=cpu-epoch1k --seed=1 --seconds=10 --trace=0
//              [--spans=FILE] [--corrupt=checksum|payload]
//   hbft_bench --host-facts
//   hbft_bench --check-fleet-threads --seed=1
//
// The result line carries every metric the workload measured (run.py picks
// the end-to-end or per-layer set) and the attempted/failed operation
// counts. The exit code is 0 only when every output check passed.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using hbft_bench::RunOptions;
using hbft_bench::RunOutcome;
using hbft_bench::SpanRecorder;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Minimal JSON emission; numbers keep all their digits.
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string HostFacts() {
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + Quote(CpuModel()) +
         ", \"compiler\": " + Quote(HBFT_BENCH_COMPILER) +
         ", \"build_type\": " + Quote(HBFT_BENCH_BUILD_TYPE) +
         ", \"optimized\": " + (kOptimized ? "true" : "false") + "}";
}

// Writes the traced run's spans: name, start, end (seconds on the run's
// monotonic clock) and parent id.
bool WriteSpans(const std::string& path, const SpanRecorder& recorder) {
  std::ofstream out(path);
  out << "[";
  const char* sep = "";
  for (const hbft_bench::Span& s : recorder.spans()) {
    out << sep << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"name\": " << Quote(s.name) << ", \"start_s\": " << Number(s.start_s)
        << ", \"end_s\": " << Number(s.end_s) << "}";
    sep = ",\n ";
  }
  out << "]\n";
  return static_cast<bool>(out);
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') {
    return false;
  }
  *value = arg + n + 1;
  return true;
}

int PrintUsage() {
  std::fprintf(stderr,
               "usage: hbft_bench --workload=NAME --seed=N --seconds=S --trace=0|1 "
               "[--spans=FILE] [--corrupt=checksum|payload]\n"
               "       hbft_bench --host-facts | --check-fleet-threads --seed=N\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string spans_path;
  bool host_facts = false;
  bool check_threads = false;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "--workload", &v)) {
      options.workload = v;
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      options.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--seconds", &v)) {
      options.seconds = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(argv[i], "--trace", &v)) {
      options.trace = v == "1";
    } else if (ParseFlag(argv[i], "--spans", &v)) {
      spans_path = v;
    } else if (ParseFlag(argv[i], "--corrupt", &v)) {
      options.corrupt = v;
    } else if (std::strcmp(argv[i], "--host-facts") == 0) {
      host_facts = true;
    } else if (std::strcmp(argv[i], "--check-fleet-threads") == 0) {
      check_threads = true;
    } else {
      return PrintUsage();
    }
  }
  if (host_facts) {
    std::printf("%s\n", HostFacts().c_str());
    return 0;
  }
  // Measure only what users run: an optimised build with the program's
  // default interpreter.
  if (!kOptimized) {
    std::fprintf(stderr, "hbft_bench: refusing to measure an unoptimised build\n");
    return 2;
  }
  if (std::getenv("HBFT_INTERP") != nullptr) {
    std::fprintf(stderr, "hbft_bench: refusing to measure with HBFT_INTERP set\n");
    return 2;
  }

  // Keep the memory a pass frees inside the process, so every timed pass
  // reuses the guest RAM the warm-up pass faulted in. By default glibc lets
  // the allocator's history decide whether a guest's 4 MiB comes back
  // recycled or freshly mapped, which made set-up time bimodal (1.2 or
  // 4.3 ms on cpu-epoch1k); handing it back to the kernel every pass instead
  // made host times drift by up to 18% between runs, the cost of faulting
  // memory in on this VM.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  SpanRecorder recorder(options.trace);
  RunOutcome outcome;
  if (check_threads) {
    outcome = hbft_bench::CheckFleetThreadIdentity(options);
  } else if (options.workload == "cpu-epoch1k") {
    outcome = hbft_bench::RunCpuEpoch1k(options, &recorder);
  } else if (options.workload == "echo-repair") {
    outcome = hbft_bench::RunEchoRepair(options, &recorder);
  } else if (options.workload == "fleet-storm") {
    outcome = hbft_bench::RunFleetStorm(options, &recorder);
  } else if (options.workload == "serve-build") {
    outcome = hbft_bench::ProbeServeBuild(options, &recorder);
  } else {
    return PrintUsage();
  }
  outcome.Set("peak_rss_mb", hbft_bench::Usage::Now().max_rss_mb, "MB");

  if (!spans_path.empty() && recorder.enabled() && !WriteSpans(spans_path, recorder)) {
    std::fprintf(stderr, "hbft_bench: cannot write %s\n", spans_path.c_str());
    return 1;
  }
  std::string metrics;
  for (const auto& [name, metric] : outcome.metrics) {
    metrics += (metrics.empty() ? "" : ", ") + Quote(name) + ": {\"value\": " +
               Number(metric.value) + ", \"unit\": " + Quote(metric.unit) + "}";
  }
  std::string errors;
  for (const std::string& e : outcome.errors) {
    errors += (errors.empty() ? "" : ", ") + Quote(e);
    std::fprintf(stderr, "hbft_bench: check failed: %s\n", e.c_str());
  }
  const bool correct = outcome.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}, "
              "\"errors\": [%s]}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed), metrics.c_str(), errors.c_str());
  return correct && outcome.failed == 0 ? 0 : 1;
}
