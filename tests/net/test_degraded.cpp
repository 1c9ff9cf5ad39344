// Degraded-mode distributed ADM-G under injected faults: the zero-fault
// path is pinned bit-for-bit against the pre-fault-framework runtime, and
// the fault paths are cross-checked against the centralized oracle on the
// (possibly reduced) problem the runtime actually solved.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "admm/admg.hpp"
#include "admm/centralized.hpp"
#include "helpers.hpp"
#include "net/runtime.hpp"
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

/// Tiny problem plus a third datacenter large enough that any single
/// datacenter can be removed and the remaining capacity (>= 1700 servers)
/// still covers the 1000 arrivals — graceful degradation stays feasible.
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

// Pinned pre-fault-framework baseline for make_tiny_problem with tight()
// options. The entire robustness layer (fault clock, stale caches, health
// table, watchdog) must be invisible on the zero-fault path: these hexfloat
// values were captured from the runtime BEFORE the fault framework existed
// (and re-captured once when the lambda and a blocks became exact solves,
// and once when their root searches began starting at the previous
// iterate), and any drift here is a behavioral regression, not a matter of
// tolerance.
TEST(DegradedRuntime, ZeroFaultRunIsPinnedBitIdenticalToPreFaultBaseline) {
  DistributedOptions dist;
  dist.admg = tight();
  const auto report = DistributedAdmgRuntime(make_tiny_problem(), dist).run();

  EXPECT_EQ(report.iterations, 63);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.balance_residual, 0x1.0adedeb335c29p-20);
  EXPECT_EQ(report.copy_residual, 0x1.9bf9df4p-25);
  EXPECT_EQ(report.network.messages, 756u);
  EXPECT_EQ(report.network.bytes, 20916u);
  EXPECT_EQ(report.network.retransmissions, 0u);
  EXPECT_EQ(report.network.delivery_failures, 0u);
  EXPECT_EQ(report.solution.lambda(0, 0), 0x1.2cp+9);   // 600 servers
  EXPECT_EQ(report.solution.lambda(0, 1), 0x0p+0);
  EXPECT_EQ(report.solution.lambda(1, 0), 0x0p+0);
  EXPECT_EQ(report.solution.lambda(1, 1), 0x1.9p+8);    // 400 servers
  EXPECT_EQ(report.solution.mu[0], 0x0p+0);
  EXPECT_EQ(report.solution.nu[0], 0x1.89374bc6a7efap-3);
  EXPECT_EQ(report.solution.mu[1], 0x1.26e8f34c58c44p-3);
  EXPECT_EQ(report.solution.nu[1], 0x1.0b114a5fp-20);
  EXPECT_EQ(report.breakdown.ufc, -0x1.69eb9612914a8p+4);
  EXPECT_EQ(report.watchdog_verdict, admm::WatchdogVerdict::Healthy);
  EXPECT_FALSE(report.fallback_centralized);
  EXPECT_EQ(report.stale_inputs, 0u);
}

TEST(DegradedRuntime, DegradedModeWithZeroFaultPlanMatchesStrictBitwise) {
  const auto problem = make_three_dc_problem();
  DistributedOptions strict;
  strict.admg = tight();
  DistributedOptions degraded = strict;
  degraded.degraded = true;

  const auto a = DistributedAdmgRuntime(problem, strict).run();
  const auto b = DistributedAdmgRuntime(problem, degraded).run();

  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(max_abs_diff(a.solution.lambda, b.solution.lambda), 0.0);
  EXPECT_EQ(max_abs_diff(a.solution.mu, b.solution.mu), 0.0);
  EXPECT_EQ(max_abs_diff(a.solution.nu, b.solution.nu), 0.0);
  EXPECT_EQ(a.breakdown.ufc, b.breakdown.ufc);
  EXPECT_EQ(b.stale_inputs, 0u);
  EXPECT_EQ(b.removed_datacenters.size(), 0u);
}

TEST(DegradedRuntime, ConvergesUnderLossCorruptionAndDelay) {
  const auto problem = make_three_dc_problem();
  const auto mono = admm::solve_admg(problem, tight());

  DistributedOptions dist;
  dist.admg = tight();
  dist.degraded = true;
  dist.max_attempts = 4;
  dist.faults.random_faults({.loss_rate = 0.15,
                             .corruption_rate = 0.05,
                             .delay_rate = 0.15,
                             .max_delay_rounds = 2});
  const auto report = DistributedAdmgRuntime(problem, dist).run();

  EXPECT_TRUE(report.converged);
  EXPECT_GT(report.stale_inputs, 0u);
  EXPECT_EQ(report.removed_datacenters.size(), 0u);
  // Stale rounds change the trajectory, not the fixed point.
  const double scale = std::abs(mono.breakdown.ufc);
  EXPECT_NEAR(report.breakdown.ufc, mono.breakdown.ufc, 0.01 * scale);
  // Faults inflate traffic and typically iterations relative to clean runs.
  EXPECT_GT(report.network.retransmissions + report.network.delayed +
                report.network.corrupted,
            0u);
}

TEST(DegradedRuntime, DatacenterCrashDegradesToReducedProblemOptimum) {
  const auto problem = make_three_dc_problem();
  DistributedOptions dist;
  dist.admg = tight();
  dist.degraded = true;
  dist.max_attempts = 2;
  dist.dead_after_rounds = 5;
  dist.faults.crash(datacenter_id(0), {10, kForeverRound});

  DistributedAdmgRuntime runtime(problem, dist);
  const auto report = runtime.run();

  ASSERT_EQ(report.removed_datacenters, (std::vector<std::size_t>{0}));
  ASSERT_EQ(report.active_datacenters, (std::vector<std::size_t>{1, 2}));
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.watchdog_verdict, admm::WatchdogVerdict::Healthy);
  EXPECT_GT(report.network.delivery_failures, 0u);

  // The surviving system must land on the optimum of the *reduced* problem,
  // independently verified by the centralized oracle.
  const UfcProblem& reduced = runtime.original_problem();
  ASSERT_EQ(reduced.datacenters.size(), 2u);
  EXPECT_EQ(reduced.datacenters[0].name, "pricey-clean");
  EXPECT_EQ(reduced.datacenters[1].name, "backup");
  admm::CentralizedOptions central;
  central.max_iterations = 8000;
  const auto oracle = admm::solve_centralized(reduced, central);
  const double scale = std::abs(oracle.objective);
  EXPECT_NEAR(report.breakdown.ufc, oracle.objective, 0.01 * scale);
}

// The round's change comes from the datacenters themselves: each reports
// the largest move of its own a, mu and nu, and the coordinator keeps the
// maximum. Under random delay and a crash long enough to remove a
// datacenter, it must equal the movement of the assembled iterate bit for
// bit, and read 0 on the removal round (whose convergence test the engine
// skips). Not pinned here: a fleet round can take in two StateSyncs from one
// worker after that worker missed a deadline, and the change is then the
// larger of the two moves, not the net movement; that case depends on
// timing.
TEST(DegradedRuntime, RoundChangeIsTheIterateMovement) {
  const auto problem = make_three_dc_problem();
  DistributedOptions dist;
  dist.admg = tight();
  dist.degraded = true;
  dist.max_attempts = 2;
  dist.dead_after_rounds = 5;
  dist.loss_seed = 5;
  dist.faults.random_faults({.delay_rate = 0.3, .max_delay_rounds = 2});
  dist.faults.crash(datacenter_id(0), {10, kForeverRound});
  DistributedAdmgRuntime runtime(problem, dist);

  int removal_rounds = 0;
  double largest = 0.0;
  for (int k = 0; k < 60; ++k) {
    const Mat a_before = runtime.a();
    const Vec mu_before = runtime.gather_mu();
    const Vec nu_before = runtime.nu();
    runtime.step(k);
    if (runtime.topology_changed()) {
      ++removal_rounds;
      EXPECT_EQ(runtime.last_change(), 0.0) << "removal round " << k;
      continue;
    }
    const double moved =
        std::max({max_abs_diff(runtime.a(), a_before),
                  max_abs_diff(runtime.gather_mu(), mu_before),
                  max_abs_diff(runtime.nu(), nu_before)});
    ASSERT_EQ(runtime.last_change(), moved) << "round " << k;
    largest = std::max(largest, moved);
  }
  EXPECT_EQ(removal_rounds, 1);
  EXPECT_EQ(runtime.removed_datacenters(), (std::vector<std::size_t>{0}));
  EXPECT_GT(runtime.stale_inputs(), 0u);
  EXPECT_GT(largest, 0.0);
}

TEST(DegradedRuntime, FrontEndCrashRestartRecovers) {
  const auto problem = make_three_dc_problem();
  const auto mono = admm::solve_admg(problem, tight());

  DistributedOptions dist;
  dist.admg = tight();
  dist.degraded = true;
  dist.max_attempts = 2;
  dist.faults.crash(front_end_id(0), {5, 12});
  const auto report = DistributedAdmgRuntime(problem, dist).run();

  EXPECT_TRUE(report.converged);
  EXPECT_GT(report.stale_inputs, 0u);
  // A transient front-end outage must not cost a datacenter its membership.
  EXPECT_EQ(report.removed_datacenters.size(), 0u);
  const double scale = std::abs(mono.breakdown.ufc);
  EXPECT_NEAR(report.breakdown.ufc, mono.breakdown.ufc, 0.01 * scale);
}

TEST(DegradedRuntime, CheckpointRestoreResumesBitIdentically) {
  const auto problem = make_three_dc_problem();

  DistributedOptions full;
  full.admg = tight();
  const auto uninterrupted = DistributedAdmgRuntime(problem, full).run();

  DistributedOptions first_leg = full;
  first_leg.admg.max_iterations = 10;
  DistributedAdmgRuntime paused(problem, first_leg);
  const auto partial = paused.run();
  ASSERT_FALSE(partial.converged);
  ASSERT_EQ(partial.iterations, 10);
  const auto image = paused.checkpoint();

  DistributedAdmgRuntime resumed(problem, full);
  resumed.restore(image);
  EXPECT_EQ(resumed.next_round(), 10);
  const auto rest = resumed.run();

  EXPECT_TRUE(rest.converged);
  EXPECT_EQ(rest.iterations + partial.iterations, uninterrupted.iterations);
  EXPECT_EQ(max_abs_diff(rest.solution.lambda, uninterrupted.solution.lambda),
            0.0);
  EXPECT_EQ(max_abs_diff(rest.solution.mu, uninterrupted.solution.mu), 0.0);
  EXPECT_EQ(max_abs_diff(rest.solution.nu, uninterrupted.solution.nu), 0.0);
  EXPECT_EQ(rest.breakdown.ufc, uninterrupted.breakdown.ufc);
  EXPECT_EQ(rest.balance_residual, uninterrupted.balance_residual);
  EXPECT_EQ(rest.copy_residual, uninterrupted.copy_residual);
}

TEST(DegradedRuntime, CheckpointSurvivesMembershipChange) {
  const auto problem = make_three_dc_problem();
  DistributedOptions dist;
  dist.admg = tight();
  dist.degraded = true;
  dist.max_attempts = 2;
  dist.dead_after_rounds = 5;
  dist.faults.crash(datacenter_id(0), {0, kForeverRound});

  DistributedOptions first_leg = dist;
  first_leg.admg.max_iterations = 40;  // enough rounds to remove the dead DC
  DistributedAdmgRuntime paused(problem, first_leg);
  (void)paused.run();
  ASSERT_EQ(paused.removed_datacenters().size(), 1u);
  const auto image = paused.checkpoint();

  DistributedAdmgRuntime resumed(problem, dist);
  resumed.restore(image);
  EXPECT_EQ(resumed.active_datacenters(),
            (std::vector<std::size_t>{1, 2}));
  const auto report = resumed.run();
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.active_datacenters, (std::vector<std::size_t>{1, 2}));
}

TEST(DegradedRuntime, RestoreRejectsMalformedImages) {
  const auto problem = make_three_dc_problem();
  DistributedOptions dist;
  dist.admg = tight();
  DistributedAdmgRuntime source(problem, dist);
  const auto image = source.checkpoint();

  {
    DistributedAdmgRuntime target(problem, dist);
    auto truncated = image;
    truncated.pop_back();
    EXPECT_THROW(target.restore(truncated), ContractViolation);
  }
  {
    DistributedAdmgRuntime target(problem, dist);
    auto mutated = image;
    mutated[0] ^= std::byte{0xFF};  // breaks the magic
    EXPECT_THROW(target.restore(mutated), ContractViolation);
  }
  {
    // A checkpoint of a different problem shape must be rejected.
    DistributedAdmgRuntime other(make_tiny_problem(), dist);
    EXPECT_THROW(other.restore(image), ContractViolation);
  }
}

TEST(DegradedRuntime, WatchdogStallTriggersCentralizedFallback) {
  const auto problem = make_three_dc_problem();
  DistributedOptions dist;
  dist.admg = tight();
  dist.admg.watchdog.stall_window = 40;
  dist.admg.fallback_to_centralized = true;
  dist.degraded = true;
  dist.max_attempts = 2;
  // Permanently partition every front-end from datacenter 0 while its link
  // to the coordinator stays up: never declared dead, never fresh — the run
  // cannot converge and must be cut short by the stall watchdog.
  dist.faults.partition(front_end_id(0), datacenter_id(0), {0, kForeverRound});
  dist.faults.partition(front_end_id(1), datacenter_id(0), {0, kForeverRound});

  const auto report = DistributedAdmgRuntime(problem, dist).run();

  EXPECT_FALSE(report.converged);
  EXPECT_EQ(report.watchdog_verdict, admm::WatchdogVerdict::Stalled);
  EXPECT_TRUE(report.fallback_centralized);
  EXPECT_EQ(report.removed_datacenters.size(), 0u);
  EXPECT_LT(report.iterations, tight().max_iterations);
  // The fallback plan is the centralized solution of the full problem.
  admm::CentralizedOptions central;
  central.max_iterations = 8000;
  const auto oracle = admm::solve_centralized(problem, central);
  const double scale = std::abs(oracle.objective);
  EXPECT_NEAR(report.breakdown.ufc, oracle.objective, 0.01 * scale);
  EXPECT_TRUE(std::isfinite(report.breakdown.ufc));
}

TEST(DegradedRuntime, StrictModeRejectsFaultPlansAndAttemptCaps) {
  const auto problem = make_tiny_problem();
  {
    DistributedOptions dist;
    dist.faults.crash(datacenter_id(0), {0, 5});
    EXPECT_THROW(DistributedAdmgRuntime(problem, dist), ContractViolation);
  }
  {
    DistributedOptions dist;
    dist.max_attempts = 3;
    EXPECT_THROW(DistributedAdmgRuntime(problem, dist), ContractViolation);
  }
  {
    // Loss alone is delivery-preserving: allowed in strict mode.
    DistributedOptions dist;
    dist.faults.random_faults({.loss_rate = 0.2});
    EXPECT_NO_THROW(DistributedAdmgRuntime(problem, dist));
  }
}

}  // namespace
}  // namespace ufc::net
