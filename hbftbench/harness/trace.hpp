// Host-side measurement for the benchmark harness: monotonic wall time,
// process CPU time and fault counts, and an in-memory span recorder.
//
// Spans are recorded only in a traced run. Each span has a name, a start, an
// end and the id of the span that was open when it began (its parent); they
// stay in memory until the run ends and are written out once. The timings a
// span carries are taken with the same clock calls an untraced run makes, so
// the difference between a traced and an untraced run is the recorder's own
// bookkeeping.
#ifndef HBFT_BENCH_TRACE_HPP_
#define HBFT_BENCH_TRACE_HPP_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace hbft_bench {

// Seconds on the monotonic clock (CLOCK_MONOTONIC on Linux), which every
// process shares, so spans of successive harness processes line up.
inline double WallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Whole-process resource usage (all threads).
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  uint64_t minor_faults = 0;
  double max_rss_mb = 0.0;

  static Usage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec * 1e-6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec * 1e-6;
    u.minor_faults = static_cast<uint64_t>(ru.ru_minflt);
    u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
    return u;
  }
  double cpu_s() const { return user_s + sys_s; }
};

struct Span {
  int id = 0;
  int parent = -1;  // -1: a root span.
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  double seconds() const { return end_s - start_s; }
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {
    if (enabled_) {
      spans_.reserve(4096);
    }
  }

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  // Opens a span under the innermost open one; returns its id (-1 when off).
  int Open(const std::string& name, double start_s) {
    if (!enabled_) {
      return -1;
    }
    Span span;
    span.id = static_cast<int>(spans_.size());
    span.parent = open_.empty() ? -1 : open_.back();
    span.name = name;
    span.start_s = start_s;
    spans_.push_back(std::move(span));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void Close(int id, double end_s) {
    if (id < 0) {
      return;
    }
    spans_[static_cast<size_t>(id)].end_s = end_s;
    open_.pop_back();
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Times one call into the program: the duration is always measured (the
// untraced run's metrics come from it); a span is recorded when tracing.
class Timed {
 public:
  Timed(SpanRecorder* recorder, const std::string& name)
      : recorder_(recorder), start_(WallSeconds()) {
    id_ = recorder_->Open(name, start_);
  }
  // Closes the span and returns its duration in seconds.
  double Stop() {
    const double end = WallSeconds();
    recorder_->Close(id_, end);
    id_ = -1;
    return end - start_;
  }
  ~Timed() {
    if (id_ >= 0) {
      Stop();
    }
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  SpanRecorder* recorder_;
  double start_;
  int id_ = -1;
};

inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest order statistic with at least ten samples beyond it (the
// eleventh largest); the median when there are fewer than forty samples,
// where such a percentile would be no tail.
inline double Tail(std::vector<double> v) {
  if (v.size() < 40) {
    return Median(v);
  }
  std::sort(v.begin(), v.end());
  return v[v.size() - 11];
}

}  // namespace hbft_bench

#endif  // HBFT_BENCH_TRACE_HPP_
