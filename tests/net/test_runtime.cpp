// The distributed runtime must reproduce the monolithic solver exactly:
// same iterates, same convergence, only message-passing in between.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "admm/admg.hpp"
#include "helpers.hpp"
#include "net/runtime.hpp"
#include "obs/metrics_observer.hpp"
#include "sim/simulator.hpp"
#include "traces/scenario.hpp"
#include "util/contract.hpp"

namespace ufc::net {
namespace {

using ::ufc::testing::make_random_problem;
using ::ufc::testing::make_tiny_problem;

admm::AdmgOptions tight() {
  admm::AdmgOptions options;
  options.tolerance = 1e-6;
  options.max_iterations = 5000;
  return options;
}

TEST(DistributedRuntime, IteratesBitIdenticalToMonolithicSolver) {
  const auto problem = make_tiny_problem();
  const auto options = tight();

  admm::AdmgSolver solver(problem, options);
  DistributedOptions dist;
  dist.admg = options;
  DistributedAdmgRuntime runtime(problem, dist);

  for (int k = 0; k < 25; ++k) {
    solver.step();
    runtime.step(k);
    ASSERT_EQ(max_abs_diff(runtime.gather_lambda(), solver.lambda()), 0.0)
        << "lambda diverged at iteration " << k;
    ASSERT_EQ(max_abs_diff(runtime.a(), solver.a()), 0.0);
    ASSERT_EQ(max_abs_diff(runtime.gather_mu(), solver.mu()), 0.0);
    ASSERT_EQ(max_abs_diff(runtime.nu(), solver.nu()), 0.0);
    // The round's change, folded from the datacenters' own moves, is the
    // solver's last change bit for bit.
    ASSERT_EQ(runtime.last_change(), solver.last_change())
        << "last change diverged at iteration " << k;
  }
}

TEST(DistributedRuntime, PhaseProfileCountsMatchInProcess) {
  // The agents run the in-process solver's block solves, so a profiled
  // zero-fault solve records the same work counts (paper hour 64, the
  // Hybrid strategy: no block pinned).
  const UfcProblem problem = traces::Scenario::generate({}).problem_at(64);
  const auto counts = [](const obs::MetricsRegistry& registry) {
    const auto count = [&](const char* name) {
      const obs::Counter* counter = registry.find_counter(name);
      return counter != nullptr ? counter->value() : 0u;
    };
    return std::vector<std::uint64_t>{
        count("solver.iterations"), count("solver.block.lambda_probes"),
        count("solver.block.lambda_projections"),
        count("solver.block.a_passes")};
  };
  admm::AdmgOptions options = sim::SimulatorOptions{}.admg;
  options.profile_phases = true;

  obs::MetricsRegistry in_process;
  obs::MetricsObserver in_process_observer(in_process);
  options.observer = &in_process_observer;
  (void)admm::solve_admg(problem, options);

  obs::MetricsRegistry distributed;
  obs::MetricsObserver distributed_observer(distributed);
  DistributedOptions dist;
  dist.admg = options;
  dist.admg.observer = &distributed_observer;
  (void)DistributedAdmgRuntime(problem, dist).run();

  const auto expected = counts(in_process);
  EXPECT_EQ(expected[0], 109u);
  EXPECT_GT(expected[1], 0u);
  EXPECT_GT(expected[2], 0u);
  EXPECT_LT(expected[2], expected[1]);
  EXPECT_GT(expected[3], 0u);
  EXPECT_EQ(counts(distributed), expected);
}

TEST(DistributedRuntime, RunMatchesMonolithicReport) {
  const auto problem = make_tiny_problem();
  const auto options = tight();
  const auto mono = admm::solve_admg(problem, options);

  DistributedOptions dist;
  dist.admg = options;
  const auto report = DistributedAdmgRuntime(problem, dist).run();
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.iterations, mono.iterations);
  EXPECT_LT(max_abs_diff(report.solution.lambda, mono.solution.lambda), 1e-9);
  EXPECT_NEAR(report.breakdown.ufc, mono.breakdown.ufc,
              1e-9 * std::abs(mono.breakdown.ufc));
}

TEST(DistributedRuntime, MessageCountMatchesProtocol) {
  // Per round: M*N proposals + M*N assignments + (M+N) reports.
  const auto problem = make_tiny_problem();  // M = 2, N = 2
  DistributedOptions dist;
  dist.admg = tight();
  DistributedAdmgRuntime runtime(problem, dist);
  runtime.step(0);
  EXPECT_EQ(runtime.bus().total().messages, 2u * 2u * 2u + 4u);
}

TEST(DistributedRuntime, MessageLossChangesNothingButRetransmissions) {
  const auto problem = make_tiny_problem();
  const auto options = tight();

  DistributedOptions clean;
  clean.admg = options;
  DistributedOptions lossy;
  lossy.admg = options;
  lossy.faults.random_faults({.loss_rate = 0.3});
  lossy.loss_seed = 11;

  const auto clean_report = DistributedAdmgRuntime(problem, clean).run();
  const auto lossy_report = DistributedAdmgRuntime(problem, lossy).run();

  EXPECT_EQ(clean_report.iterations, lossy_report.iterations);
  EXPECT_LT(max_abs_diff(clean_report.solution.lambda,
                         lossy_report.solution.lambda),
            1e-12);
  EXPECT_EQ(clean_report.network.retransmissions, 0u);
  EXPECT_GT(lossy_report.network.retransmissions, 0u);
  EXPECT_GT(lossy_report.network.bytes, clean_report.network.bytes);
}

TEST(DistributedRuntime, StrategyPinningWorksOverTheWire) {
  const auto problem = make_tiny_problem();
  {
    DistributedOptions dist;
    dist.admg = tight();
    dist.admg.pinning = admm::BlockPinning::PinMu;
    const auto report = DistributedAdmgRuntime(problem, dist).run();
    EXPECT_TRUE(report.converged);
    for (double mu : report.solution.mu) EXPECT_NEAR(mu, 0.0, 1e-9);
  }
  {
    DistributedOptions dist;
    dist.admg = tight();
    dist.admg.pinning = admm::BlockPinning::PinNu;
    const auto report = DistributedAdmgRuntime(problem, dist).run();
    EXPECT_TRUE(report.converged);
    for (double nu : report.solution.nu) EXPECT_NEAR(nu, 0.0, 2e-4);
  }
}

void build_solver(const UfcProblem& problem, const admm::AdmgOptions& options) {
  admm::AdmgSolver solver(problem, options);
}

void build_runtime(const UfcProblem& problem,
                   const admm::AdmgOptions& options) {
  DistributedOptions dist;
  dist.admg = options;
  DistributedAdmgRuntime runtime(problem, dist);
}

// Both drivers validate their options with admm::step_rule, so an option
// set one of them rejects never runs on the other.
TEST(DistributedRuntime, RejectsTheOptionsAdmgSolverRejects) {
  const auto problem = make_tiny_problem();
  admm::AdmgOptions pin_nu;
  pin_nu.pinning = admm::BlockPinning::PinNu;
  // The tiny problem's fuel cells carry its peak demand, so only the cut
  // below makes the FuelCell case invalid.
  ASSERT_NO_THROW(build_solver(problem, pin_nu));
  ASSERT_NO_THROW(build_runtime(problem, pin_nu));
  auto weak_cells = problem;
  for (auto& dc : weak_cells.datacenters) dc.fuel_cell_capacity_mw *= 0.1;

  struct Case {
    const char* name;
    const UfcProblem* problem;
    admm::AdmgOptions options;
  };
  std::vector<Case> cases;
  const auto with = [&](const char* name, auto edit) {
    admm::AdmgOptions options;
    edit(options);
    cases.push_back({name, &problem, options});
  };
  with("epsilon = 0.3", [](admm::AdmgOptions& o) { o.epsilon = 0.3; });
  with("epsilon = 1.5", [](admm::AdmgOptions& o) { o.epsilon = 1.5; });
  with("threads = -3", [](admm::AdmgOptions& o) { o.threads = -3; });
  with("tolerance = 0", [](admm::AdmgOptions& o) { o.tolerance = 0.0; });
  with("max_iterations = 0",
       [](admm::AdmgOptions& o) { o.max_iterations = 0; });
  cases.push_back({"PinNu, fuel cells at 10%", &weak_cells, pin_nu});

  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_THROW(build_solver(*c.problem, c.options), ContractViolation);
    EXPECT_THROW(build_runtime(*c.problem, c.options), ContractViolation);
  }
}

class RuntimeRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RuntimeRandomized, AgreesWithMonolithicOnRandomInstances) {
  const auto problem = make_random_problem(GetParam() + 300, 4, 3);
  const auto options = tight();
  const auto mono = admm::solve_admg(problem, options);
  DistributedOptions dist;
  dist.admg = options;
  const auto report = DistributedAdmgRuntime(problem, dist).run();
  EXPECT_EQ(report.iterations, mono.iterations);
  EXPECT_LT(max_abs_diff(report.solution.lambda, mono.solution.lambda), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuntimeRandomized,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace ufc::net
