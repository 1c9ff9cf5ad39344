// Anderson iteration frontier (docs/SOLVER_INGREDIENTS.md).
//
// Runs the plain ADM-G loop and the safeguarded Anderson mixer to a fixed
// scaled-residual tolerance at each problem scale and reports
// iterations-to-tolerance and wall time, normalized against the plain loop
// (the bit-pinned reference). The accelerated run is cross-checked against
// the plain run's objective (both must agree on the optimum, not just
// converge), and the rows land in BENCH_ufc.json under `iteration_frontier`
// (validated by scripts/check_bench_json.py). Override the sizes with
// UFC_BENCH_SIZES (see bench_common.hpp).
#include "bench_common.hpp"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "admm/admg.hpp"
#include "util/rng.hpp"

namespace {

// Same generator (and seeds) as bench_parallel_scaling, so sizes here are
// directly comparable with the scaling-frontier rows.
ufc::UfcProblem random_problem(std::size_t m, std::size_t n) {
  using namespace ufc;
  Rng rng(1234);
  UfcProblem p;
  p.power = ServerPowerModel{100.0, 200.0};
  p.fuel_cell_price = 80.0;
  p.latency_weight = 10.0;
  p.utility = std::make_shared<QuadraticUtility>();
  double capacity = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    DatacenterSpec dc;
    dc.name = "dc" + std::to_string(j);
    dc.servers = rng.uniform(1.7e4, 2.3e4);
    dc.grid_price = rng.uniform(15.0, 120.0);
    dc.carbon_rate = rng.uniform(200.0, 900.0);
    dc.fuel_cell_capacity_mw = dc.servers * 200.0 * 1.2 / 1e6;
    dc.emission_cost = std::make_shared<AffineCarbonTax>(25.0);
    capacity += dc.servers;
    p.datacenters.push_back(std::move(dc));
  }
  Rng shares_rng(7);
  p.arrivals =
      normal_shares(shares_rng, static_cast<int>(m), 0.6 * capacity, 0.35);
  p.latency_s = Mat(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      p.latency_s(i, j) = rng.uniform(0.002, 0.045);
  return p;
}

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
  obs::JsonValue frontier = obs::JsonValue::array();

  for (const bench::BenchSize& size : sizes) {
    const UfcProblem problem = random_problem(size.m, size.n);
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

      obs::JsonValue row = obs::JsonValue::object();
      row.set("m", obs::JsonValue(static_cast<std::int64_t>(size.m)));
      row.set("n", obs::JsonValue(static_cast<std::int64_t>(size.n)));
      row.set("acceleration", obs::JsonValue(name));
      row.set("iterations", obs::JsonValue(run.iterations));
      row.set("converged", obs::JsonValue(run.converged));
      row.set("wall_seconds", obs::JsonValue(run.wall_seconds));
      row.set("speedup_vs_none", obs::JsonValue(speedup));
      frontier.push_back(std::move(row));
    }
    table.print();
    std::cout << "\n";
  }

  obs::JsonValue metrics = obs::JsonValue::object();
  metrics.set("iteration_frontier", std::move(frontier));
  bench::write_bench_entry("ingredients", std::move(metrics));
  bench::note_csv(csv);
  return 0;
}
