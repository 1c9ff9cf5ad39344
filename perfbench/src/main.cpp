// ufc_perfbench: runs one workload of the repo benchmark for a wall-clock
// budget and prints one JSON result record on stdout.
//
//   ufc_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--socket-dir DIR] [--trace-out FILE]
//
// Untraced runs (--trace 0) repeat whole passes of the workload — each pass
// preceded by batches of timed set-ups and then its own set-up — until the
// next pass would overrun the budget, and report the end-to-end metrics.
// Traced runs (--trace 1) alternate untraced and span-traced passes, then
// run the per-layer probes, and report the per-layer metrics. Both run the
// fail-closed output checks on the last pass's plans. perfbench/run.py
// builds this binary and wraps the record in the benchmark's result line.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string socket_dir = ".";
  std::string trace_out;
};

int usage() {
  std::cerr << "usage: ufc_perfbench --workload NAME [--seed N] [--seconds S]"
               " [--trace 0|1] [--socket-dir DIR] [--trace-out FILE]\n"
               "workloads:";
  for (const auto& name : workload_names()) std::cerr << ' ' << name;
  std::cerr << '\n';
  return 2;
}

bool parse(int argc, char** argv, Args& args) {
  for (int k = 1; k + 1 < argc; k += 2) {
    const std::string key = argv[k];
    const std::string value = argv[k + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--socket-dir") args.socket_dir = value;
    else if (key == "--trace-out") args.trace_out = value;
    else return false;
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

/// Set-up is timed in batches of back-to-back set-ups, each batch long
/// enough (at least kSetupBatchSeconds) to rise above timer and cache noise
/// even where one set-up takes well under a millisecond. kSetupBatches
/// batches are taken before the first pass and kSetupBatchesPerPass before
/// every pass, so the median spans the whole run rather than its first
/// instant.
constexpr double kSetupBatchSeconds = 0.02;
constexpr int kSetupBatches = 9;
constexpr int kSetupBatchesPerPass = 3;

struct Totals {
  std::vector<double> setup_seconds;
  std::vector<double> pass_seconds;
  std::vector<double> unit_seconds;
  std::vector<std::int64_t> pass_iterations;
  std::vector<std::int64_t> pass_solves;
  std::int64_t unconverged = 0;
  std::int64_t failed = 0;

  void add(const PassStats& stats, double seconds) {
    pass_seconds.push_back(seconds);
    unit_seconds.insert(unit_seconds.end(), stats.unit_seconds.begin(),
                        stats.unit_seconds.end());
    pass_iterations.push_back(stats.iterations);
    pass_solves.push_back(stats.solves);
    unconverged += stats.unconverged;
    failed += stats.failed;
  }
};

/// Appends `batches` set-up samples, each the mean of `batch` set-ups.
void sample_setups(Workload& workload, int batch, int batches,
                   Totals& totals) {
  for (int b = 0; b < batches; ++b)
    totals.setup_seconds.push_back(time_seconds([&] {
      for (int k = 0; k < batch; ++k) workload.setup(nullptr);
    }) / batch);
}

/// One (untimed) set-up + pass; returns the pass wall time.
double run_one_pass(Workload& workload, Totals& totals, SpanRecorder* spans) {
  std::optional<SpanObserver> observer;
  if (spans != nullptr) observer.emplace(*spans);
  workload.setup(observer ? &*observer : nullptr);
  PassStats stats;
  const double seconds = time_seconds([&] {
    stats = workload.run_pass(spans, observer ? &*observer : nullptr);
  });
  totals.add(stats, seconds);
  return seconds;
}

void report_common(const Totals& totals, Result& result) {
  result.attempted = static_cast<std::int64_t>(totals.unit_seconds.size());
  result.failed = totals.failed;
  result.pass_seconds = totals.pass_seconds;
  std::int64_t solves = 0;
  for (const auto s : totals.pass_solves) solves += s;
  result.note("unconverged_frac",
              static_cast<double>(totals.unconverged) /
                  static_cast<double>(solves),
              "ratio");
  // Every pass replays the same seeded inputs, so iteration counts repeat
  // exactly; anything else is nondeterminism in the solver.
  double mismatch = 0.0;
  for (const auto iterations : totals.pass_iterations)
    if (iterations != totals.pass_iterations.front()) mismatch += 1.0;
  result.check("pass_iteration_mismatch", mismatch, 0.0);
}

int run(const Args& args) {
  auto workload = make_workload(args.workload, args.seed);
  Result result;
  result.compiler = PERFBENCH_COMPILER;
  result.build_type = PERFBENCH_BUILD_TYPE;
  result.workload = args.workload;
  result.seed = args.seed;
  result.traced = args.trace;

  Totals totals;
  if (!args.trace) {
    const double first_setup =
        time_seconds([&] { workload->setup(nullptr); });
    const int batch = std::max(
        1, static_cast<int>(std::ceil(kSetupBatchSeconds / first_setup)));
    sample_setups(*workload, batch, kSetupBatches, totals);
    double timed = 0.0;
    double rss = 0.0;
    for (;;) {
      sample_setups(*workload, batch, kSetupBatchesPerPass, totals);
      const double pass = run_one_pass(*workload, totals, nullptr);
      // Peak RSS over set-up and one pass: a fixed amount of work, so the
      // figure does not depend on how many passes fit the budget.
      if (totals.pass_seconds.size() == 1) rss = peak_rss_mb();
      timed += pass;
      if (timed + pass > args.seconds) break;
    }
    report_common(totals, result);
    const auto passes = static_cast<double>(totals.pass_seconds.size());
    result.metric("setup_s", median(totals.setup_seconds), "s");
    // The mean, not the median, pass: on a shared host the machine's speed
    // drifts in phases of tens of seconds, and the mean averages over every
    // pass.
    result.metric("wall_s", timed / passes, "s");
    result.metric("latency_ms_p50",
                  1e3 * ufc::percentile(totals.unit_seconds, 50.0), "ms");
    result.metric("latency_ms_p90",
                  1e3 * ufc::percentile(totals.unit_seconds, 90.0), "ms");
    result.metric("throughput_per_s",
                  static_cast<double>(result.attempted) / timed, "1/s");
    result.metric("iterations",
                  static_cast<double>(totals.pass_iterations.front()), "count");
    result.metric("peak_rss_mb", rss, "MiB");
    workload->check(result);
  } else {
    // Alternate untraced and traced passes: adjacent passes see the same
    // phase of the host's speed drift, so the median of the per-pair
    // differences is the tracing overhead with most of the drift cancelled.
    Totals traced;
    SpanRecorder spans;
    std::vector<double> overhead;
    double elapsed = 0.0;
    for (;;) {
      const double plain = run_one_pass(*workload, totals, nullptr);
      spans.clear();
      const double with_spans = run_one_pass(*workload, traced, &spans);
      overhead.push_back(with_spans - plain);
      elapsed += plain + with_spans;
      if (elapsed + plain + with_spans > args.seconds) break;
    }
    report_common(traced, result);
    result.metric("trace.overhead_s", median(overhead), "s");
    const double call_total = spans.total_seconds(workload->unit_span());
    result.metric("trace.call_self_share",
                  spans.self_seconds(workload->unit_span()) / call_total,
                  "ratio");
    result.metric("engine.iterations_per_solve",
                  static_cast<double>(traced.pass_iterations.back()) /
                      static_cast<double>(traced.pass_solves.back()),
                  "count");
    if (!args.trace_out.empty()) spans.write_chrome_trace(args.trace_out);
    workload->check(result);
    workload.reset();  // Its thread pools must not outlive into the probes.
    run_layer_probes(args.workload, args.seed, args.socket_dir, result);
  }
  std::cout << result.to_json() << std::endl;
  return result.all_checks_passed() && result.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse(argc, argv, args)) return usage();
    return run(args);
  } catch (const std::exception& error) {
    std::cerr << "ufc_perfbench: " << error.what() << '\n';
    return 1;
  }
}
