// Warm-start value in the receding-horizon controller (docs/CONTROLLER.md).
//
// Replays one week of the paper scenario as a tick stream into two solvers
// that run the same tick — apply_update, then solve_budgeted — and differ in
// exactly one call: the cold baseline reset()s to the paper's cold start
// before every re-solve, the warm one keeps its iterate. Both get the same
// per-tick iteration budget, so the comparison isolates what the warm
// iterate buys: iterations-to-converge per tick and how often the budget
// runs out at all.
//
// Override the tick count with UFC_BENCH_TICKS (CI smoke runs a short
// prefix of the week).
#include "bench_common.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "admm/admg.hpp"
#include "admm/solve_core.hpp"
#include "ctrl/stream.hpp"
#include "sim/simulator.hpp"
#include "traces/scenario.hpp"

namespace {

/// Iteration budget per tick (the deadline, in solver steps).
constexpr int kBudgetPerTick = 400;

/// One solver's lifetime totals over the replay.
struct Totals {
  int ticks = 0;
  int converged = 0;
  int budget_exhausted = 0;
  std::int64_t iterations = 0;

  void add(const ufc::admm::AdmgReport& report) {
    ++ticks;
    iterations += report.iterations;
    if (report.status == ufc::admm::SolveStatus::Converged) {
      ++converged;
    } else {
      ++budget_exhausted;
    }
  }
};

/// Tick count: the full week unless UFC_BENCH_TICKS overrides (malformed
/// values abort rather than silently benchmarking the wrong length).
int bench_ticks(int available) {
  // Benches are single-threaded at startup; nobody calls setenv concurrently.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* env = std::getenv("UFC_BENCH_TICKS");
  if (env == nullptr || *env == '\0') return available;
  int ticks = 0;
  if (!ufc::bench::parse_positive(env, ticks)) {
    std::cerr << "UFC_BENCH_TICKS: malformed value '" << env
              << "' (expected a positive integer)\n";
    std::exit(2);
  }
  return std::min(ticks, available);
}

}  // namespace

int main() {
  using namespace ufc;

  bench::print_header("Receding-horizon warm starts vs cold restarts",
                      "streaming re-solve, one week of hourly ticks");

  // The paper's §IV-A week (seed 42) under the paper-scale solver settings.
  const auto scenario = traces::Scenario::generate(traces::ScenarioConfig{});
  ctrl::ScenarioTickSource source(scenario);

  std::vector<admm::ProblemUpdate> updates;
  while (auto update = source.next()) updates.push_back(std::move(*update));
  const int ticks = bench_ticks(static_cast<int>(updates.size()));
  updates.resize(static_cast<std::size_t>(ticks));

  const admm::AdmgOptions admg = sim::SimulatorOptions{}.admg;
  admm::AdmgSolver warm(source.base_problem(), admg);
  admm::AdmgSolver cold(source.base_problem(), admg);
  Totals warm_totals;
  Totals cold_totals;

  CsvWriter csv("ufc_controller.csv",
                {"tick", "warm_iterations", "warm_status", "cold_iterations",
                 "cold_status"});
  for (int t = 0; t < ticks; ++t) {
    const admm::ProblemUpdate& update = updates[static_cast<std::size_t>(t)];
    warm.apply_update(update);
    cold.apply_update(update);
    const admm::AdmgReport warm_report = warm.solve_budgeted(kBudgetPerTick);
    cold.reset();
    const admm::AdmgReport cold_report = cold.solve_budgeted(kBudgetPerTick);
    warm_totals.add(warm_report);
    cold_totals.add(cold_report);
    csv.row_strings({std::to_string(t), std::to_string(warm_report.iterations),
                     admm::to_string(warm_report.status),
                     std::to_string(cold_report.iterations),
                     admm::to_string(cold_report.status)});
  }

  // A warm iterate that went non-finite anywhere in the week would poison
  // every later tick; fail loudly rather than reporting garbage totals.
  if (!warm.iterate_finite() || !cold.iterate_finite()) {
    std::cerr << "controller ended with a non-finite iterate\n";
    return 1;
  }

  const double savings_ratio =
      cold_totals.iterations > 0
          ? 1.0 - static_cast<double>(warm_totals.iterations) /
                      static_cast<double>(cold_totals.iterations)
          : 0.0;

  TablePrinter table({"controller", "ticks", "iterations", "converged",
                      "budget exhausted", "iters/tick"});
  const auto add = [&](const char* name, const Totals& totals) {
    table.add_row({std::string(name), std::to_string(totals.ticks),
                   std::to_string(totals.iterations),
                   std::to_string(totals.converged),
                   std::to_string(totals.budget_exhausted),
                   fixed(static_cast<double>(totals.iterations) /
                             std::max(1, totals.ticks),
                         1)});
  };
  add("warm (keep iterate)", warm_totals);
  add("cold restart", cold_totals);
  table.print();
  std::cout << "\nWarm starts cut total iterations by "
            << fixed(100.0 * savings_ratio, 1) << "% over " << ticks
            << " ticks at budget " << kBudgetPerTick << "/tick.\n";

  bench::note_csv(csv);
  return 0;
}
