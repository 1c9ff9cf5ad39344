// Threaded ADM-G determinism: the solver must produce the bitwise-identical
// iterate sequence and report for every thread count. The parallel passes
// write disjoint rows/columns over deterministic chunks, so serial vs
// threads=4 is an exact equality test, not a tolerance test.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

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

}  // namespace
}  // namespace ufc::admm
