#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <limits>
#include <map>

#include "obs/json.hpp"

namespace perfbench {

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so it would report the
  // launching process's peak when that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
  return std::numeric_limits<double>::quiet_NaN();
}

double time_seconds(const std::function<void()>& body) {
  const ufc::util::MonotonicTimer timer;
  body();
  return timer.elapsed_seconds();
}

double median_us_per_call(const std::function<void()>& body, int calls,
                          int rounds) {
  std::vector<double> per_call;
  per_call.reserve(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    const double seconds = time_seconds([&] {
      for (int c = 0; c < calls; ++c) body();
    });
    per_call.push_back(1e6 * seconds / calls);
  }
  return median(per_call);
}

bool Result::all_checks_passed() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const Check& c) { return c.passed(); });
}

namespace {

ufc::obs::JsonValue json_metrics(const std::vector<Metric>& metrics) {
  auto out = ufc::obs::JsonValue::object();
  for (const Metric& metric : metrics) {
    auto entry = ufc::obs::JsonValue::object();
    entry.set("value", metric.value);
    entry.set("unit", metric.unit);
    out.set(metric.name, std::move(entry));
  }
  return out;
}

}  // namespace

std::string Result::to_json() const {
  auto out = ufc::obs::JsonValue::object();
  out.set("compiler", compiler);
  out.set("build_type", build_type);
  out.set("workload", workload);
  out.set("seed", seed);
  out.set("trace", traced ? 1 : 0);
  auto passes = ufc::obs::JsonValue::array();
  for (const double seconds : pass_seconds) passes.push_back(seconds);
  out.set("pass_seconds", std::move(passes));
  out.set("attempted", attempted);
  out.set("failed", failed);
  out.set("metrics", json_metrics(metrics));
  out.set("extra", json_metrics(extra));
  auto check_list = ufc::obs::JsonValue::array();
  for (const Check& check : checks) {
    auto entry = ufc::obs::JsonValue::object();
    entry.set("name", check.name);
    entry.set("value", check.value);
    entry.set("bound", check.bound);
    entry.set("passed", check.passed());
    check_list.push_back(std::move(entry));
  }
  out.set("checks", std::move(check_list));
  return out.dump(0);
}

SpanRecorder::SpanRecorder() : origin_(ufc::util::monotonic_now()) {}

int SpanRecorder::begin(const char* name, int parent) {
  const auto now = ufc::util::monotonic_now();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, now, now, parent, std::this_thread::get_id()});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::end(int id) {
  const auto now = ufc::util::monotonic_now();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(id)).end = now;
}

int SpanRecorder::add(const char* name, ufc::util::MonotonicTick start,
                      ufc::util::MonotonicTick end, int parent) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start, end, parent, std::this_thread::get_id()});
  return static_cast<int>(spans_.size() - 1);
}

double SpanRecorder::self_seconds(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t k = 0; k < spans_.size(); ++k)
    self[k] = ufc::util::seconds_between(spans_[k].start, spans_[k].end);
  for (const Span& span : spans_) {
    if (span.parent == kNoParent) continue;
    const auto p = static_cast<std::size_t>(span.parent);
    if (spans_[p].thread == span.thread)
      self[p] -= ufc::util::seconds_between(span.start, span.end);
  }
  double total = 0.0;
  for (std::size_t k = 0; k < spans_.size(); ++k)
    if (name == spans_[k].name) total += self[k];
  return total;
}

double SpanRecorder::total_seconds(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const Span& span : spans_)
    if (name == span.name)
      total += ufc::util::seconds_between(span.start, span.end);
  return total;
}

void SpanRecorder::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::thread::id, int> tids;
  auto events = ufc::obs::JsonValue::array();
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& span = spans_[k];
    auto event = ufc::obs::JsonValue::object();
    event.set("name", span.name);
    event.set("ph", "X");
    event.set("pid", 1);
    event.set("tid", tids.emplace(span.thread, static_cast<int>(tids.size()))
                         .first->second);
    event.set("ts", 1e6 * ufc::util::seconds_between(origin_, span.start));
    event.set("dur", 1e6 * ufc::util::seconds_between(span.start, span.end));
    auto args = ufc::obs::JsonValue::object();
    args.set("id", static_cast<std::int64_t>(k));
    args.set("parent", span.parent);
    event.set("args", std::move(args));
    events.push_back(std::move(event));
  }
  auto trace = ufc::obs::JsonValue::object();
  trace.set("traceEvents", std::move(events));
  ufc::obs::write_json_file(path, trace);
}

void SpanObserver::on_iteration(const ufc::admm::IterationSample& sample) {
  const auto end = ufc::util::monotonic_now();
  const auto start =
      end - std::chrono::duration_cast<ufc::util::MonotonicTick::duration>(
                std::chrono::duration<double>(sample.wall_seconds));
  recorder_.add("engine.iteration", start, end, parent_.load());
}

}  // namespace perfbench
