// Multi-process fleet tests: the Supervisor forks real worker processes and
// the coordinator talks to them over the socket transport. The assertions
// cross-check the fleet against the in-process degraded runtime — the same
// protocol, so the same answers — and against the centralized oracle for
// the graceful-degradation path.
//
// Environments that refuse sockets or fork (some sandboxes) skip.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "admm/admg.hpp"
#include "admm/centralized.hpp"
#include "helpers.hpp"
#include "net/runtime.hpp"
#include "net/supervisor.hpp"
#include "util/contract.hpp"

namespace ufc::net {
namespace {

using ::ufc::testing::make_tiny_problem;

admm::AdmgOptions tight() {
  admm::AdmgOptions options;
  options.tolerance = 1e-6;
  options.max_iterations = 5000;
  return options;
}

/// Same shape as test_degraded.cpp: three datacenters, any one removable
/// with enough surviving capacity that degradation stays feasible.
UfcProblem make_three_dc_problem() {
  UfcProblem p = make_tiny_problem();
  DatacenterSpec third;
  third.name = "backup";
  third.servers = 900.0;
  third.pue = 1.3;
  third.grid_price = 60.0;
  third.carbon_rate = 500.0;
  third.fuel_cell_capacity_mw = 200.0 * 900.0 * 1.3 / 1e6;
  third.emission_cost = std::make_shared<AffineCarbonTax>(25.0);
  p.datacenters.push_back(std::move(third));
  Mat latency(2, 3);
  latency(0, 0) = 0.010;
  latency(0, 1) = 0.030;
  latency(0, 2) = 0.025;
  latency(1, 0) = 0.040;
  latency(1, 1) = 0.015;
  latency(1, 2) = 0.020;
  p.latency_s = latency;
  return p;
}

SupervisorOptions base_options() {
  SupervisorOptions options;
  options.distributed.admg = tight();
  options.distributed.degraded = true;
  options.processes = 2;
  return options;
}

/// Runs the fleet, converting environment refusals (no sockets, no fork)
/// into a skip instead of a failure.
std::optional<SupervisedReport> run_or_skip(const UfcProblem& problem,
                                            const SupervisorOptions& options) {
  try {
    return Supervisor(problem, options).run();
  } catch (const std::runtime_error& error) {
    return std::nullopt;
  }
}

TEST(Supervised, ZeroFaultFleetMatchesInProcessRun) {
  const auto problem = make_three_dc_problem();
  const auto fleet = run_or_skip(problem, base_options());
  if (!fleet.has_value()) GTEST_SKIP() << "fork/socket unavailable";

  DistributedOptions dist;
  dist.admg = tight();
  dist.degraded = true;
  const auto mono = DistributedAdmgRuntime(problem, dist).run();

  EXPECT_TRUE(fleet->converged);
  EXPECT_EQ(fleet->removed_datacenters.size(), 0u);
  EXPECT_EQ(fleet->workers_spawned, 2u);
  EXPECT_EQ(fleet->workers_exited, 2u);
  EXPECT_EQ(fleet->workers_killed, 0u);
  // The wire is the only difference between the two runs; doubles travel
  // bit-exact, so a fleet that never went stale reproduces the in-process
  // trajectory digit for digit.
  if (fleet->stale_inputs == 0) {
    EXPECT_EQ(fleet->iterations, mono.iterations);
    EXPECT_EQ(max_abs_diff(fleet->solution.lambda, mono.solution.lambda), 0.0);
    EXPECT_EQ(max_abs_diff(fleet->solution.mu, mono.solution.mu), 0.0);
    EXPECT_EQ(max_abs_diff(fleet->solution.nu, mono.solution.nu), 0.0);
    EXPECT_EQ(fleet->breakdown.ufc, mono.breakdown.ufc);
  } else {
    // Deadline misses under load stale a round but not the fixed point.
    const double scale = std::abs(mono.breakdown.ufc);
    EXPECT_NEAR(fleet->breakdown.ufc, mono.breakdown.ufc, 0.01 * scale);
  }

  // Deterministic merge order: one metrics table per worker, by index.
  ASSERT_EQ(fleet->worker_metrics.size(), 2u);
  EXPECT_EQ(fleet->worker_metrics[0].worker_index, 0u);
  EXPECT_EQ(fleet->worker_metrics[1].worker_index, 1u);
  for (const auto& worker : fleet->worker_metrics) {
    const auto& counters = worker.tables.counters;
    const auto it = counters.find("rounds_processed");
    ASSERT_NE(it, counters.end());
    EXPECT_GT(it->second, 0u);
  }
}

TEST(Supervised, KilledWorkerDegradesToReducedProblemOptimum) {
  const auto problem = make_three_dc_problem();
  // processes=2 deals datacenters round-robin: worker 0 hosts {0, 2},
  // worker 1 hosts {1}. SIGKILL worker 1 after engine iteration 10.
  auto options = base_options();
  options.kill_at_round = 10;
  options.kill_worker = 1;
  const auto fleet = run_or_skip(problem, options);
  if (!fleet.has_value()) GTEST_SKIP() << "fork/socket unavailable";

  EXPECT_TRUE(fleet->converged);
  ASSERT_EQ(fleet->removed_datacenters, (std::vector<std::size_t>{1}));
  EXPECT_EQ(fleet->active_datacenters, (std::vector<std::size_t>{0, 2}));
  EXPECT_GE(fleet->workers_killed, 1u);

  // In-process crash-window equivalent: the process dies after iteration
  // 10, is never heard from again, and the EOF makes one silent round
  // enough to declare it dead.
  DistributedOptions dist;
  dist.admg = tight();
  dist.degraded = true;
  dist.max_attempts = 2;
  dist.dead_after_rounds = 1;
  dist.faults.crash(datacenter_id(1), {11, kForeverRound});
  DistributedAdmgRuntime runtime(problem, dist);
  const auto mono = runtime.run();
  ASSERT_EQ(mono.removed_datacenters, (std::vector<std::size_t>{1}));

  // Both paths must land on the reduced-problem optimum, independently
  // confirmed by the centralized oracle.
  const UfcProblem& reduced = runtime.original_problem();
  ASSERT_EQ(reduced.datacenters.size(), 2u);
  admm::CentralizedOptions central;
  central.max_iterations = 8000;
  const auto oracle = admm::solve_centralized(reduced, central);
  const double scale = std::abs(oracle.objective);
  EXPECT_NEAR(fleet->breakdown.ufc, oracle.objective, 0.01 * scale);
  EXPECT_NEAR(fleet->breakdown.ufc, mono.breakdown.ufc, 0.01 * scale);
}

TEST(Supervised, CheckpointCrashRestartResumesAndStaysFeasible) {
  const auto problem = make_three_dc_problem();
  auto options = base_options();
  options.checkpoint_at_round = 10;
  const auto first = run_or_skip(problem, options);
  if (!first.has_value()) GTEST_SKIP() << "fork/socket unavailable";
  ASSERT_TRUE(first->converged);
  ASSERT_FALSE(first->checkpoint_image.empty());

  // Crash-restart: a brand-new fleet restores the iteration-10 image and
  // finishes the solve.
  const auto resumed =
      Supervisor(problem, base_options()).run(first->checkpoint_image);
  EXPECT_TRUE(resumed.converged);
  EXPECT_LT(resumed.iterations, first->iterations);
  // Feasibility guard: the resumed plan still balances every front-end's
  // arrivals across the surviving datacenters.
  EXPECT_LT(resumed.balance_residual, 10.0 * tight().tolerance);
  const double scale = std::abs(first->breakdown.ufc);
  EXPECT_NEAR(resumed.breakdown.ufc, first->breakdown.ufc, 1e-6 * scale);
}

TEST(Supervised, ContractChecksRejectBadOptions) {
  const auto problem = make_tiny_problem();
  {
    auto options = base_options();
    options.distributed.degraded = false;  // a fleet can always lose a worker
    EXPECT_THROW(Supervisor(problem, options), ContractViolation);
  }
  {
    auto options = base_options();
    options.processes = 0;
    EXPECT_THROW(Supervisor(problem, options), ContractViolation);
  }
  {
    auto options = base_options();
    options.kill_at_round = 5;
    options.kill_worker = 7;  // out of range for processes = 2
    EXPECT_THROW(Supervisor(problem, options), ContractViolation);
  }
}

}  // namespace
}  // namespace ufc::net
