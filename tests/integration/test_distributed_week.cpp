// Paper-scale integration of the message-passing runtime: on real scenario
// slots (M = 10, N = 4) the distributed protocol must match the monolithic
// solver exactly and its traffic must follow the Fig. 2 protocol counts.
#include <gtest/gtest.h>

#include "admm/admg.hpp"
#include "net/runtime.hpp"
#include "traces/scenario.hpp"

namespace ufc::net {
namespace {

class DistributedWeek : public ::testing::TestWithParam<int> {
 protected:
  static traces::Scenario make_scenario() {
    traces::ScenarioConfig config;
    return traces::Scenario::generate(config);
  }
};

TEST_P(DistributedWeek, MatchesMonolithicOnScenarioSlot) {
  const auto scenario = make_scenario();
  const auto problem = scenario.problem_at(GetParam());

  admm::AdmgOptions options;
  options.tolerance = 3e-3;
  options.max_iterations = 800;
  options.record_trace = false;

  const auto mono = admm::solve_admg(problem, options);
  DistributedOptions dist;
  dist.admg = options;
  const auto report = DistributedAdmgRuntime(problem, dist).run();

  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.iterations, mono.iterations);
  EXPECT_LT(max_abs_diff(report.solution.lambda, mono.solution.lambda), 1e-9);
  EXPECT_NEAR(report.breakdown.ufc, mono.breakdown.ufc,
              1e-9 * std::abs(mono.breakdown.ufc));

  // Protocol accounting: per round M*N proposals + M*N assignments +
  // (M + N) convergence reports.
  const std::uint64_t m = problem.num_front_ends();
  const std::uint64_t n = problem.num_datacenters();
  const auto rounds = static_cast<std::uint64_t>(report.iterations);
  EXPECT_EQ(report.network.messages, rounds * (2 * m * n + m + n));
  EXPECT_EQ(report.network.retransmissions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Slots, DistributedWeek,
                         ::testing::Values(10, 64, 110, 160));

TEST(DistributedWeekLossy, HeavyLossStillMatchesExactly) {
  const auto scenario = traces::Scenario::generate({});
  const auto problem = scenario.problem_at(64);
  admm::AdmgOptions options;
  options.tolerance = 3e-3;
  options.max_iterations = 800;
  options.record_trace = false;

  DistributedOptions clean;
  clean.admg = options;
  DistributedOptions lossy;
  lossy.admg = options;
  // Every message dropped ~1.5x on average.
  lossy.faults.random_faults({.loss_rate = 0.6});
  lossy.loss_seed = 3;

  const auto a = DistributedAdmgRuntime(problem, clean).run();
  const auto b = DistributedAdmgRuntime(problem, lossy).run();
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(max_abs_diff(a.solution.lambda, b.solution.lambda), 0.0);
  // Loss shows up only in the transport counters.
  EXPECT_GT(b.network.retransmissions, b.network.messages / 2);
}

}  // namespace
}  // namespace ufc::net
