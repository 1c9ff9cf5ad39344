// Parameterized property sweeps of the ADM-G solver: every (rho, epsilon,
// utility shape, emission policy) combination must reach the same optimum,
// and the solver must be invariant to the things it claims invariance to.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <tuple>

#include "admm/admg.hpp"
#include "admm/centralized.hpp"
#include "helpers.hpp"
#include "lambda_kkt.hpp"
#include "util/contract.hpp"

namespace ufc::admm {
namespace {

using ::ufc::testing::expect_lambda_rows_kkt_optimal;
using ::ufc::testing::make_random_problem;
using ::ufc::testing::make_tiny_problem;

AdmgOptions tight() {
  AdmgOptions options;
  options.tolerance = 1e-6;
  options.max_iterations = 8000;
  return options;
}

class RhoEpsilonSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(RhoEpsilonSweep, SameOptimumForAllPenaltiesAndRelaxations) {
  const auto [rho, epsilon] = GetParam();
  const auto problem = make_tiny_problem();
  auto options = tight();
  options.rho = rho;
  options.epsilon = epsilon;
  const auto report = solve_admg(problem, options);
  EXPECT_TRUE(report.converged) << "rho " << rho << " eps " << epsilon;
  EXPECT_NEAR(report.breakdown.ufc, -22.62, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RhoEpsilonSweep,
    ::testing::Combine(::testing::Values(1.0, 3.0, 10.0, 30.0),
                       ::testing::Values(0.6, 0.8, 1.0)));

class EmissionPolicySweep : public ::testing::TestWithParam<int> {};

TEST_P(EmissionPolicySweep, ConvergesForNonStronglyConvexPolicies) {
  // The whole point of ADM-G over plain multi-block ADMM: convergence with
  // merely-convex V. Exercise all four families.
  auto problem = make_tiny_problem();
  std::shared_ptr<const EmissionCostFunction> policy;
  switch (GetParam()) {
    case 0: policy = std::make_shared<AffineCarbonTax>(25.0); break;
    case 1: policy = std::make_shared<CapAndTradeCost>(0.05, 60.0); break;
    case 2:
      policy = std::make_shared<SteppedCarbonTax>(
          std::vector<double>{0.05, 0.15}, std::vector<double>{10.0, 30.0, 90.0});
      break;
    default: policy = std::make_shared<QuadraticEmissionCost>(10.0, 50.0);
  }
  for (auto& dc : problem.datacenters) dc.emission_cost = policy;

  const auto report = solve_admg(problem, tight());
  EXPECT_TRUE(report.converged);
  EXPECT_LT(constraint_violation(problem, report.solution.lambda,
                                 report.solution.mu),
            1e-2);

  // Independent oracle agreement.
  CentralizedOptions central;
  central.max_iterations = 6000;
  const auto oracle = solve_centralized(problem, central);
  const double scale = std::abs(oracle.objective);
  EXPECT_NEAR(report.breakdown.ufc, oracle.objective, 0.02 * scale);
}

INSTANTIATE_TEST_SUITE_P(Policies, EmissionPolicySweep,
                         ::testing::Range(0, 4));

class UtilityShapeSweep : public ::testing::TestWithParam<int> {};

TEST_P(UtilityShapeSweep, ConvergesForEveryUtilityShape) {
  auto problem = make_tiny_problem();
  switch (GetParam()) {
    case 0: problem.utility = std::make_shared<QuadraticUtility>(); break;
    case 1: problem.utility = std::make_shared<LinearUtility>(); break;
    default: problem.utility = std::make_shared<ExponentialUtility>(0.02);
  }
  const auto report = solve_admg(problem, tight());
  EXPECT_TRUE(report.converged);

  CentralizedOptions central;
  central.max_iterations = 6000;
  const auto oracle = solve_centralized(problem, central);
  const double scale = std::abs(oracle.objective);
  EXPECT_NEAR(report.breakdown.ufc, oracle.objective, 0.02 * scale);
}

INSTANTIATE_TEST_SUITE_P(Shapes, UtilityShapeSweep, ::testing::Range(0, 3));

TEST(AdmgInvariance, WorkloadScaleDoesNotChangeObjective) {
  const auto problem = make_tiny_problem();
  auto coarse = tight();
  coarse.workload_scale = 1.0;  // disable normalization
  coarse.rho = 0.3;             // the paper's raw-unit setting
  coarse.max_iterations = 60000;
  const auto raw = solve_admg(problem, coarse);

  const auto normalized = solve_admg(problem, tight());
  EXPECT_NEAR(raw.breakdown.ufc, normalized.breakdown.ufc,
              5e-3 * std::abs(normalized.breakdown.ufc));
}

TEST(AdmgInvariance, ObjectiveInvariantUnderScaleTransform) {
  // scale_workload_units must preserve the UFC value of matched points.
  const auto problem = make_tiny_problem();
  const double sigma = 250.0;
  const auto scaled = scale_workload_units(problem, sigma);

  Mat lambda(2, 2, 0.0);
  lambda(0, 0) = 600.0;
  lambda(1, 1) = 400.0;
  Mat lambda_scaled = lambda;
  lambda_scaled *= 1.0 / sigma;
  const Vec mu{0.05, 0.02};
  EXPECT_NEAR(ufc_objective(problem, lambda, mu),
              ufc_objective(scaled, lambda_scaled, mu), 1e-9);
}

TEST(AdmgHeterogeneous, MatchesOracleWithPerSiteServerModels) {
  // The heterogeneous-fleet extension (paper §II-A): per-site power
  // envelopes flow through alpha/beta, the workload scaling and the oracle.
  auto problem = make_tiny_problem();
  problem.datacenters[0].power_override = ServerPowerModel{80.0, 260.0};
  problem.datacenters[1].power_override = ServerPowerModel{130.0, 180.0};
  const auto report = solve_admg(problem, tight());
  EXPECT_TRUE(report.converged);

  CentralizedOptions central;
  central.max_iterations = 6000;
  const auto oracle = solve_centralized(problem, central);
  const double scale = std::abs(oracle.objective);
  EXPECT_NEAR(report.breakdown.ufc, oracle.objective, 0.02 * scale);
}

TEST(AdmgOptionsValidation, RejectsBadParameters) {
  const auto problem = make_tiny_problem();
  {
    auto options = tight();
    options.rho = 0.0;
    EXPECT_THROW(AdmgSolver(problem, options), ContractViolation);
  }
  {
    auto options = tight();
    options.epsilon = 0.5;  // must be strictly > 0.5
    EXPECT_THROW(AdmgSolver(problem, options), ContractViolation);
  }
  {
    auto options = tight();
    options.epsilon = 1.5;
    EXPECT_THROW(AdmgSolver(problem, options), ContractViolation);
  }
  {
    auto options = tight();
    options.max_iterations = 0;
    EXPECT_THROW(AdmgSolver(problem, options), ContractViolation);
  }
}

TEST(AdmgTrace, RecordsEveryIteration) {
  const auto problem = make_tiny_problem();
  auto options = tight();
  options.record_trace = true;
  const auto report = solve_admg(problem, options);
  EXPECT_EQ(report.trace.balance_residual.size(),
            static_cast<std::size_t>(report.iterations));
  EXPECT_EQ(report.trace.objective.size(),
            static_cast<std::size_t>(report.iterations));
  // The final trace objective matches the reported breakdown.
  EXPECT_NEAR(report.trace.objective.back(), report.breakdown.ufc,
              1e-6 * std::abs(report.breakdown.ufc));
}

TEST(AdmgTrace, DisabledTraceStaysEmpty) {
  const auto problem = make_tiny_problem();
  auto options = tight();
  options.record_trace = false;
  const auto report = solve_admg(problem, options);
  EXPECT_TRUE(report.trace.objective.empty());
}

TEST(AdmgWarmStart, SameOptimumFewerIterationsOnSimilarSlot) {
  // Warm-starting from an adjacent, slightly-perturbed slot must reach the
  // same optimum and converge faster than a cold start.
  const auto problem = make_tiny_problem();
  auto perturbed = problem;
  perturbed.datacenters[0].grid_price *= 1.05;
  perturbed.arrivals[0] *= 1.02;
  perturbed.arrivals[1] *= 0.98;
  ProblemUpdate next_slot;
  next_slot.grid_prices.emplace_back(0, perturbed.datacenters[0].grid_price);
  next_slot.arrivals.emplace_back(0, perturbed.arrivals[0]);
  next_slot.arrivals.emplace_back(1, perturbed.arrivals[1]);

  const auto options = tight();
  AdmgSolver solver(problem, options);
  const auto first = solver.solve();
  ASSERT_TRUE(first.converged);

  solver.apply_update(next_slot);
  const auto warm = solver.solve_warm();
  const auto cold = solve_admg(perturbed, options);

  EXPECT_TRUE(warm.converged);
  EXPECT_NEAR(warm.breakdown.ufc, cold.breakdown.ufc,
              1e-4 * std::abs(cold.breakdown.ufc));
  EXPECT_LT(warm.iterations, cold.iterations);
}

TEST(AdmgWarmStart, UpdateRequiresReconvergence) {
  const auto problem = make_tiny_problem();
  AdmgSolver solver(problem, tight());
  (void)solver.solve();
  EXPECT_TRUE(solver.is_converged());
  ProblemUpdate repricing;
  repricing.grid_prices.emplace_back(1,
                                     problem.datacenters[1].grid_price * 2.0);
  solver.apply_update(repricing);
  EXPECT_FALSE(solver.is_converged());  // must not report stale convergence
}

TEST(AdmgStepApi, ManualSteppingMatchesSolve) {
  const auto problem = make_tiny_problem();
  const auto options = tight();
  AdmgSolver manual(problem, options);
  const auto report = solve_admg(problem, options);
  for (int k = 0; k < report.iterations; ++k) manual.step();
  Mat lambda_servers = manual.lambda();
  lambda_servers *= manual.workload_scale();
  EXPECT_LT(max_abs_diff(lambda_servers, report.solution.lambda), 1e-9);
}

// The default engine's lambda predictions, checked over full rows against
// the sort oracle: after up to 500 iterations, the next step's rows must be
// KKT points of their eq. (17) sub-problems.
TEST(AdmgProperties, LambdaPredictionsAreKktOptimalAtThreeSizes) {
  struct Case {
    std::size_t m, n;
    std::uint64_t seed;  // 0 = the hand-built tiny problem
  };
  constexpr std::array<Case, 3> cases = {{{2, 2, 0}, {12, 4, 5}, {32, 8, 6}}};
  for (const auto& c : cases) {
    const UfcProblem problem =
        c.seed == 0 ? make_tiny_problem() : make_random_problem(c.seed, c.m, c.n);
    AdmgOptions options;
    options.max_iterations = 500;
    AdmgSolver solver(problem, options);
    (void)solver.solve();
    expect_lambda_rows_kkt_optimal(solver);
  }
}

}  // namespace
}  // namespace ufc::admm
