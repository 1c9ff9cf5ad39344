// Anderson iteration frontier (docs/SOLVER_INGREDIENTS.md).
//
// Runs the plain ADM-G loop and the safeguarded Anderson mixer to a fixed
// scaled-residual tolerance at each problem scale and reports
// iterations-to-tolerance and wall time, normalized against the plain loop
// (the bit-pinned reference). The accelerated run is cross-checked against
// the plain run's objective (both must agree on the optimum, not just
// converge): a mismatch exits 1. Override the sizes with UFC_BENCH_SIZES
// (see bench_common.hpp).
#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "admm/admg.hpp"

namespace {

/// Plain loop first: the accelerated row is normalized against it.
constexpr ufc::admm::Acceleration kAccelerations[] = {
    ufc::admm::Acceleration::None,
    ufc::admm::Acceleration::Anderson,
};

struct RunResult {
  int iterations = 0;
  bool converged = false;
  double wall_seconds = 0.0;
  double ufc = 0.0;
  std::uint64_t fallbacks = 0;
};

RunResult run_acceleration(const ufc::UfcProblem& problem,
                           ufc::admm::Acceleration acceleration,
                           int max_iterations) {
  ufc::admm::AdmgOptions options;
  options.acceleration = acceleration;
  options.max_iterations = max_iterations;
  options.record_trace = false;
  const auto start = std::chrono::steady_clock::now();
  const ufc::admm::AdmgReport report = ufc::admm::solve_admg(problem, options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  RunResult result;
  result.iterations = report.iterations;
  result.converged = report.converged;
  result.wall_seconds = std::chrono::duration<double>(elapsed).count();
  result.ufc = report.breakdown.ufc;
  result.fallbacks = report.acceleration_fallbacks;
  return result;
}

}  // namespace

int main() {
  using namespace ufc;

  bench::print_header("Anderson iteration frontier",
                      "ADM-G with and without Anderson mixing "
                      "(docs/SOLVER_INGREDIENTS.md)");

  // Iteration caps sized so the default tolerance is reachable at the two
  // smaller scales on one core; 4096x256 rows are capped (and honestly
  // reported converged = no when truncated).
  const std::vector<bench::BenchSize> sizes = bench::bench_sizes({
      {64, 16, 2000},
      {1024, 128, 3000},
      {4096, 256, 300},
  });

  CsvWriter csv("ufc_ingredients.csv",
                {"m", "n", "acceleration", "iterations", "converged",
                 "wall_seconds", "ufc", "fallbacks", "speedup_vs_none"});

  for (const bench::BenchSize& size : sizes) {
    const UfcProblem problem = bench::random_problem(size.m, size.n);
    std::cout << "-- " << size.m << " front-ends x " << size.n
              << " datacenters (max " << size.iterations << " iterations)\n";
    TablePrinter table({"acceleration", "iters", "converged", "wall s",
                        "UFC $/h", "fallbacks", "iters speedup"});

    double baseline_iterations = 0.0;
    double baseline_ufc = 0.0;
    bool baseline_converged = false;
    for (const admm::Acceleration acceleration : kAccelerations) {
      const std::string name = admm::to_string(acceleration);
      const RunResult run =
          run_acceleration(problem, acceleration, size.iterations);
      const bool is_baseline = acceleration == admm::Acceleration::None;
      if (is_baseline) {
        baseline_iterations = static_cast<double>(run.iterations);
        baseline_ufc = run.ufc;
        baseline_converged = run.converged;
      }
      const double speedup =
          run.iterations > 0
              ? baseline_iterations / static_cast<double>(run.iterations)
              : 0.0;
      // Converged runs share the optimum; a large objective gap means the
      // mixer broke the solve rather than accelerated it.
      // Truncated runs (either side hit the iteration cap) are reported but
      // not compared — they sit at different points of the same trajectory.
      const double ufc_gap =
          std::abs(run.ufc - baseline_ufc) /
          std::max(1.0, std::abs(baseline_ufc));
      if (!is_baseline && baseline_converged && run.converged &&
          ufc_gap > 5e-3) {
        std::cerr << "objective mismatch for " << name << ": " << run.ufc
                  << " vs " << baseline_ufc << "\n";
        return 1;
      }

      table.add_row({name, std::to_string(run.iterations),
                     run.converged ? "yes" : "no", fixed(run.wall_seconds, 3),
                     fixed(run.ufc, 2), std::to_string(run.fallbacks),
                     fixed(speedup, 2)});
      csv.row_strings({std::to_string(size.m), std::to_string(size.n), name,
                       std::to_string(run.iterations),
                       run.converged ? "1" : "0",
                       csv_number(run.wall_seconds), csv_number(run.ufc),
                       std::to_string(run.fallbacks), csv_number(speedup)});
    }
    table.print();
    std::cout << "\n";
  }

  bench::note_csv(csv);
  return 0;
}
