// Parallel scaling of the ADM-G step, two sweeps:
//
//  1. Thread scaling: per-iteration wall time vs. the AdmgOptions::threads
//     knob at three problem scales, against the pre-PR serial baseline (the
//     allocating, single-threaded step an earlier optimization replaced).
//     Iterates are bit-identical across thread counts, so every row times
//     exactly the same arithmetic.
//
//  2. Size-scaling frontier (docs/PERFORMANCE.md, "Scaling frontier"):
//     serial per-iteration time up to 4096x256 for the default kernels
//     (exact block solves over every coordinate), against the pre-frontier
//     serial baseline. Each run is KKT-validated: one more step is taken
//     from a snapshot of (a, varphi), and the resulting lambda rows are
//     checked as projected-gradient fixed points of their sub-problems.
//     The bench prints every row and then exits 1 if any size failed.
//     Override the sizes with UFC_BENCH_SIZES (see bench_common.hpp).
#include "bench_common.hpp"

#include <algorithm>
#include <chrono>

#include "admm/admg.hpp"
#include "math/projections.hpp"
#include "opt/kkt.hpp"

namespace {

/// Per-iteration wall time of `solver`, warming up `warmup` steps first (the
/// first step pays the workspace allocations).
double us_per_iteration(ufc::admm::AdmgSolver& solver, int warmup,
                        int iterations) {
  for (int k = 0; k < warmup; ++k) solver.step();
  const auto start = std::chrono::steady_clock::now();
  for (int k = 0; k < iterations; ++k) solver.step();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::micro>(elapsed).count() /
         static_cast<double>(iterations);
}

struct Scale {
  std::size_t m, n;
  int iterations;
  /// Pre-PR serial per-iteration time, microseconds: the allocating
  /// single-threaded step() at commit 7f015e8, measured on this container
  /// (release build, FISTA inner solver, same random_problem seeds).
  double pre_pr_serial_us;
};

/// Serial per-iteration time of the pre-frontier kernels (sort projection,
/// strided column gathers) at commit 627702a, measured on a 1-core
/// container (release build, threads=1, warmup 5, same random_problem
/// seeds). 0.0 = no baseline recorded for this size (custom UFC_BENCH_SIZES
/// points): the speedup columns are then reported as 0.
double pre_frontier_serial_us(std::size_t m, std::size_t n) {
  if (m == 64 && n == 16) return 4735.11;
  if (m == 256 && n == 32) return 34942.6;
  if (m == 1024 && n == 128) return 771943.0;
  if (m == 4096 && n == 256) return 6866200.0;
  return 0.0;
}

struct KktSummary {
  double max_residual = 0.0;
  bool passed = true;
};

/// Validates the default kernels' lambda predictions as first-order optima:
/// snapshot (a, varphi), take one step, and check sampled rows of the
/// resulting lambda (which the step computed from exactly that snapshot) as
/// projected-gradient fixed points of the per-front-end sub-problem
/// (eq. (17)). The check runs over the full row, so a coordinate the block
/// solve got wrong shows up as a residual there.
KktSummary validate_lambda_kkt(ufc::admm::AdmgSolver& solver) {
  using namespace ufc;
  const Mat a_snap = solver.a();
  const Mat varphi_snap = solver.varphi();
  solver.step();
  const Mat& lambda = solver.lambda();
  const UfcProblem& p = solver.problem();
  const std::size_t m = p.num_front_ends();
  const std::size_t n = p.num_datacenters();
  const std::size_t stride = m < 16 ? 1 : m / 16;
  const double rho = solver.options().rho;
  KktSummary summary;
  for (std::size_t i = 0; i < m; i += stride) {
    const double arrival = p.arrivals[i];
    if (arrival <= 0.0) continue;
    Vec row(n);
    for (std::size_t j = 0; j < n; ++j) row[j] = lambda(i, j);
    auto gradient = [&](const Vec& x) {
      double avg_latency = 0.0;
      for (std::size_t j = 0; j < n; ++j)
        avg_latency += x[j] * p.latency_s(i, j);
      avg_latency /= arrival;
      const double uprime = p.utility->derivative(avg_latency);
      Vec g(n);
      for (std::size_t j = 0; j < n; ++j)
        g[j] = -p.latency_weight * uprime * p.latency_s(i, j) -
               varphi_snap(i, j) - rho * (a_snap(i, j) - x[j]);
      return g;
    };
    auto project = [&](const Vec& x) { return project_simplex(x, arrival); };
    const auto check = check_first_order_optimality(row, gradient, project,
                                                    1e-6, 1e-5, arrival);
    summary.max_residual = std::max(summary.max_residual, check.residual);
    summary.passed = summary.passed && check.passed;
  }
  return summary;
}

}  // namespace

int main() {
  using namespace ufc;
  bench::print_header(
      "Parallel scaling - ADM-G step wall time vs. threads",
      "n/a (engineering benchmark; iterates bit-identical across rows)");
  // Parsed first, so a malformed override fails before anything is timed.
  const auto frontier = bench::bench_sizes({
      {64, 16, 96},
      {256, 32, 32},
      {1024, 128, 8},
      {4096, 256, 8},
  });

  const Scale scales[] = {
      {16, 4, 2000, 60.3},
      {64, 16, 200, 5424.5},
      {256, 32, 40, 38758.2},
  };
  const int thread_counts[] = {1, 2, 4, 8};

  TablePrinter table({"M", "N", "threads", "us/iter", "pre-PR serial us",
                      "speedup vs pre-PR"});
  CsvWriter csv("ufc_parallel.csv", {"m", "n", "threads", "us_per_iter",
                                     "pre_pr_serial_us", "speedup_vs_pre_pr"});
  for (const auto& scale : scales) {
    const auto problem = bench::random_problem(scale.m, scale.n);
    for (int threads : thread_counts) {
      admm::AdmgOptions options;
      options.threads = threads;
      admm::AdmgSolver solver(problem, options);
      const double us = us_per_iteration(solver, 5, scale.iterations);
      const double speedup = scale.pre_pr_serial_us / us;
      table.add_row(std::to_string(scale.m),
                    {static_cast<double>(scale.n),
                     static_cast<double>(threads), us, scale.pre_pr_serial_us,
                     speedup},
                    2);
      csv.row({static_cast<double>(scale.m), static_cast<double>(scale.n),
               static_cast<double>(threads), us, scale.pre_pr_serial_us,
               speedup});
    }
  }
  table.print();
  std::cout << "\nNote: wall-clock thread scaling requires physical cores; "
               "on a single-core host the threads>1 rows measure "
               "synchronization overhead only.\n";
  bench::note_csv(csv);

  // ---- Size-scaling frontier: the default kernels, serial.
  std::cout << "\n=== Size-scaling frontier (serial) ===\n\n";
  TablePrinter frontier_table({"M", "N", "default us/iter", "pre-PR us",
                               "default speedup", "KKT max res", "KKT pass"});
  CsvWriter frontier_csv(
      "ufc_scaling_frontier.csv",
      {"m", "n", "iterations", "default_us_per_iter", "pre_pr_us",
       "default_speedup", "kkt_max_residual", "kkt_passed"});
  bool kkt_failed = false;
  for (const auto& size : frontier) {
    const auto problem = bench::random_problem(size.m, size.n);

    admm::AdmgOptions defaults;
    defaults.threads = 1;
    admm::AdmgSolver solver(problem, defaults);
    const double default_us = us_per_iteration(solver, 2, size.iterations);
    const KktSummary kkt = validate_lambda_kkt(solver);

    const double pre_pr = pre_frontier_serial_us(size.m, size.n);
    const double default_speedup = pre_pr > 0.0 ? pre_pr / default_us : 0.0;
    frontier_table.add_row(
        std::to_string(size.m),
        {static_cast<double>(size.n), default_us, pre_pr, default_speedup,
         kkt.max_residual, kkt.passed ? 1.0 : 0.0},
        2);
    frontier_csv.row({static_cast<double>(size.m),
                      static_cast<double>(size.n),
                      static_cast<double>(size.iterations), default_us,
                      pre_pr, default_speedup, kkt.max_residual,
                      kkt.passed ? 1.0 : 0.0});
    if (!kkt.passed) {
      std::cerr << "KKT check failed at " << size.m << "x" << size.n
                << " (max residual " << kkt.max_residual
                << "): the default kernels' lambda rows are not optimal\n";
      kkt_failed = true;
    }
  }
  frontier_table.print();
  bench::note_csv(frontier_csv);
  return kkt_failed ? 1 : 0;
}
