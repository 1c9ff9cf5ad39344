// Measurement plumbing shared by the workloads and the layer probes:
// timing helpers, peak RSS, the result record (metrics + fail-closed
// checks) and the in-memory span recorder of traced runs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "admm/telemetry.hpp"
#include "util/clock.hpp"
#include "util/stats.hpp"

namespace perfbench {

/// Median of the samples; throws ufc::ContractViolation if there are none
/// or any is non-finite.
inline double median(std::span<const double> samples) {
  return ufc::percentile(samples, 50.0);
}

/// Peak resident set size of this process so far, MiB.
double peak_rss_mb();

/// Seconds taken by one call of `body`.
double time_seconds(const std::function<void()>& body);

/// Median per-call microseconds of `body`, measured in `rounds` rounds of
/// `calls` back-to-back calls each (tiny bodies need batching to rise above
/// the clock's resolution).
double median_us_per_call(const std::function<void()>& body, int calls,
                          int rounds);

/// One fail-closed output check: passes iff value <= bound.
struct Check {
  std::string name;
  double value = 0.0;
  double bound = 0.0;
  bool passed() const { return value <= bound; }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one benchmark invocation reports. `metrics` are the
/// BENCHMARK.json metrics of the run's mode; `extra` carries the remaining
/// diagnostics (unconverged share, counts that must stay zero, ...), which
/// the record prints but the contract line does not.
struct Result {
  std::string compiler;
  std::string build_type;
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<double> pass_seconds;
  std::vector<Metric> metrics;
  std::vector<Metric> extra;
  std::vector<Check> checks;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    extra.push_back({std::move(name), value, std::move(unit)});
  }
  void check(std::string name, double value, double bound) {
    checks.push_back({std::move(name), value, bound});
  }
  bool all_checks_passed() const;
  std::string to_json() const;
};

/// In-memory span tree of a traced run: name, start, end, parent, thread.
/// Spans are appended under a mutex (tenant solves report from pool
/// threads) and written out once, as Chrome trace-event JSON, at exit.
class SpanRecorder {
 public:
  static constexpr int kNoParent = -1;

  SpanRecorder();

  /// Opens a span on the calling thread; returns its id.
  int begin(const char* name, int parent);
  void end(int id);
  /// Records an already-finished span given its start and end ticks.
  int add(const char* name, ufc::util::MonotonicTick start,
          ufc::util::MonotonicTick end, int parent);

  /// Sum over spans named `name` of (duration - durations of the span's
  /// children that ran on the same thread), seconds.
  double self_seconds(const std::string& name) const;
  /// Sum of the durations of spans named `name`, seconds.
  double total_seconds(const std::string& name) const;
  void clear();
  /// Chrome trace-event JSON ("X" events, microseconds); throws on I/O
  /// failure.
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    ufc::util::MonotonicTick start{};
    ufc::util::MonotonicTick end{};
    int parent = kNoParent;
    std::thread::id thread;
  };

  ufc::util::MonotonicTick origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII top-level span: opens on construction, closes on destruction;
/// a no-op with a null recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder),
        id_(recorder ? recorder->begin(name, SpanRecorder::kNoParent)
                     : SpanRecorder::kNoParent) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

/// Iteration observer of traced runs: turns every engine iteration into an
/// "engine.iteration" span (end = now, start = now - sample wall time)
/// under the caller-designated parent span. Thread-safe.
class SpanObserver final : public ufc::admm::IterationObserver {
 public:
  explicit SpanObserver(SpanRecorder& recorder) : recorder_(recorder) {}
  void set_parent(int parent) { parent_.store(parent); }
  void on_iteration(const ufc::admm::IterationSample& sample) override;

 private:
  SpanRecorder& recorder_;
  std::atomic<int> parent_{SpanRecorder::kNoParent};
};

}  // namespace perfbench
