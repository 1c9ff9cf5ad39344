// Threaded ADM-G determinism: the solver must produce the bitwise-identical
// iterate sequence and report for every thread count. The parallel passes
// write disjoint rows/columns over deterministic chunks, so serial vs
// threads=4 is an exact equality test, not a tolerance test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "admm/admg.hpp"
#include "helpers.hpp"

namespace ufc::admm {
namespace {

AdmgOptions with_threads(int threads) {
  AdmgOptions options;
  options.max_iterations = 60;
  options.tolerance = 1e-6;
  options.record_trace = true;
  options.threads = threads;
  return options;
}

void expect_identical_iterates(const AdmgSolver& a, const AdmgSolver& b) {
  EXPECT_EQ(max_abs_diff(a.lambda(), b.lambda()), 0.0);
  EXPECT_EQ(max_abs_diff(a.a(), b.a()), 0.0);
  EXPECT_EQ(max_abs_diff(a.varphi(), b.varphi()), 0.0);
  EXPECT_EQ(max_abs_diff(a.mu(), b.mu()), 0.0);
  EXPECT_EQ(max_abs_diff(a.nu(), b.nu()), 0.0);
  EXPECT_EQ(max_abs_diff(a.phi(), b.phi()), 0.0);
  EXPECT_EQ(a.last_change(), b.last_change());
}

TEST(AdmgParallel, StepSequenceBitIdenticalSerialVsFourThreads) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const auto problem = testing::make_random_problem(seed, 12, 5);
    AdmgSolver serial(problem, with_threads(1));
    AdmgSolver threaded(problem, with_threads(4));
    for (int k = 0; k < 25; ++k) {
      serial.step();
      threaded.step();
      expect_identical_iterates(serial, threaded);
    }
  }
}

TEST(AdmgParallel, ReportsIdenticalSerialVsFourThreads) {
  // Anderson snapshots and replaces the flat iterate around the thread-pool
  // passes, so it runs here too (under TSan in CI); its safeguard fallbacks
  // must match as well.
  for (const Acceleration acceleration :
       {Acceleration::None, Acceleration::Anderson}) {
    for (std::uint64_t seed : {21u, 22u, 23u}) {
      const auto problem = testing::make_random_problem(seed, 10, 4);
      AdmgOptions serial_opts = with_threads(1);
      serial_opts.acceleration = acceleration;
      AdmgOptions threaded_opts = with_threads(4);
      threaded_opts.acceleration = acceleration;
      const AdmgReport serial = AdmgSolver(problem, serial_opts).solve();
      const AdmgReport threaded = AdmgSolver(problem, threaded_opts).solve();
      SCOPED_TRACE(std::string(to_string(acceleration)) + ", seed " +
                   std::to_string(seed));

      EXPECT_EQ(serial.iterations, threaded.iterations);
      EXPECT_EQ(serial.converged, threaded.converged);
      EXPECT_EQ(serial.acceleration_fallbacks, threaded.acceleration_fallbacks);
      EXPECT_EQ(serial.balance_residual, threaded.balance_residual);
      EXPECT_EQ(serial.copy_residual, threaded.copy_residual);
      EXPECT_EQ(max_abs_diff(serial.solution.lambda, threaded.solution.lambda),
                0.0);
      EXPECT_EQ(max_abs_diff(serial.solution.mu, threaded.solution.mu), 0.0);
      EXPECT_EQ(max_abs_diff(serial.solution.nu, threaded.solution.nu), 0.0);
      EXPECT_EQ(serial.breakdown.ufc, threaded.breakdown.ufc);
      ASSERT_EQ(serial.trace.objective.size(),
                threaded.trace.objective.size());
      for (std::size_t k = 0; k < serial.trace.objective.size(); ++k)
        EXPECT_EQ(serial.trace.objective[k], threaded.trace.objective[k]);
    }
  }
}

TEST(AdmgParallel, PinnedBaselinesBitIdentical) {
  const auto problem = testing::make_tiny_problem();
  for (BlockPinning pinning : {BlockPinning::PinMu, BlockPinning::PinNu}) {
    AdmgOptions serial_opts = with_threads(1);
    serial_opts.pinning = pinning;
    AdmgOptions threaded_opts = with_threads(3);
    threaded_opts.pinning = pinning;
    AdmgSolver serial(problem, serial_opts);
    AdmgSolver threaded(problem, threaded_opts);
    for (int k = 0; k < 15; ++k) {
      serial.step();
      threaded.step();
      expect_identical_iterates(serial, threaded);
    }
  }
}

TEST(AdmgParallel, WarmStartAcrossUpdateBitIdentical) {
  const auto slot_a = testing::make_random_problem(41, 10, 4);
  AdmgOptions serial_opts = with_threads(1);
  serial_opts.max_iterations = 40;
  AdmgOptions threaded_opts = with_threads(4);
  threaded_opts.max_iterations = 40;

  AdmgSolver serial(slot_a, serial_opts);
  AdmgSolver threaded(slot_a, threaded_opts);
  (void)serial.solve();
  (void)threaded.solve();
  expect_identical_iterates(serial, threaded);

  // The next slot moves every arrival (down, so it stays feasible) and every
  // grid price.
  ProblemUpdate slot_b;
  for (std::size_t i = 0; i < slot_a.num_front_ends(); ++i)
    slot_b.arrivals.emplace_back(
        i, slot_a.arrivals[i] * (0.8 + 0.02 * static_cast<double>(i)));
  for (std::size_t j = 0; j < slot_a.num_datacenters(); ++j)
    slot_b.grid_prices.emplace_back(
        j, slot_a.datacenters[j].grid_price *
               (0.8 + 0.15 * static_cast<double>(j)));
  serial.apply_update(slot_b);
  threaded.apply_update(slot_b);
  const AdmgReport rs = serial.solve_warm();
  const AdmgReport rt = threaded.solve_warm();
  EXPECT_EQ(rs.iterations, rt.iterations);
  expect_identical_iterates(serial, threaded);
}

/// The gate's reads as full passes over the iterate.
bool scanned_finite(const AdmgSolver& s) {
  return all_finite(s.lambda().raw()) && all_finite(s.a().raw()) &&
         all_finite(s.varphi().raw()) && all_finite(s.mu().span()) &&
         all_finite(s.nu().span()) && all_finite(s.phi().span()) &&
         std::isfinite(s.last_change());
}

void expect_gate_matches_full_passes(const AdmgSolver& s,
                                     const std::string& where) {
  EXPECT_EQ(s.copy_residual(), max_abs_diff(s.a(), s.lambda())) << where;
  EXPECT_EQ(s.iterate_finite(), scanned_finite(s)) << where;
  double balance = 0.0;
  for (std::size_t j = 0; j < s.mu().size(); ++j)
    balance = std::max(
        balance, std::abs(s.problem().alpha_mw(j) +
                          s.problem().beta_mw(j) * s.a().col_sum(j) -
                          s.mu()[j] - s.nu()[j]));
  EXPECT_EQ(s.balance_residual(), balance) << where;
}

TEST(AdmgParallel, CachedGateMatchesFullPasses) {
  // The datacenter pass folds the gate's residuals and finiteness per
  // chunk; every read after a step, and after each way of replacing the
  // iterate, must equal the full pass bit for bit.
  const auto problem = testing::make_random_problem(31, 9, 5);
  for (const int threads : {1, 2, 4}) {
    const std::string label = "threads=" + std::to_string(threads);
    AdmgSolver solver(problem, with_threads(threads));
    expect_gate_matches_full_passes(solver, label + " cold");
    for (int k = 0; k < 12; ++k) {
      solver.step();
      expect_gate_matches_full_passes(solver,
                                      label + " step " + std::to_string(k));
    }

    std::vector<double> flat(solver.iterate_size());
    solver.copy_iterate(flat);
    const auto image = solver.checkpoint();
    solver.step();
    solver.restore(image);
    expect_gate_matches_full_passes(solver, label + " restore");

    for (double& v : flat) v *= 1.5;
    solver.set_iterate(flat);
    expect_gate_matches_full_passes(solver, label + " set_iterate");
    solver.step();
    expect_gate_matches_full_passes(solver, label + " step after set");

    ProblemUpdate update;
    update.arrivals.emplace_back(0, problem.arrivals[0] * 0.5);
    update.grid_prices.emplace_back(1, 2.0 * problem.datacenters[1].grid_price);
    solver.apply_update(update);
    expect_gate_matches_full_passes(solver, label + " apply_update");
    solver.step();
    expect_gate_matches_full_passes(solver, label + " step after update");

    // A NaN installed through the flat seam is in the next step's columns.
    solver.copy_iterate(flat);
    flat[2 * problem.num_front_ends() * problem.num_datacenters()] =
        std::numeric_limits<double>::quiet_NaN();  // varphi(0, 0)
    solver.set_iterate(flat);
    EXPECT_FALSE(solver.iterate_finite()) << label;
    solver.step();
    EXPECT_FALSE(solver.iterate_finite()) << label << " after the step";
    EXPECT_EQ(solver.iterate_finite(), scanned_finite(solver)) << label;
  }
}

}  // namespace
}  // namespace ufc::admm
