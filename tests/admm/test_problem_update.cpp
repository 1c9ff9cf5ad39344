// Streaming problem mutation and budgeted resume: the solver seams the
// receding-horizon controller (src/ctrl) is built on.
//
// Three behaviors are pinned here because each hid a real bug:
//  1. apply_update validates the whole batch before committing anything and
//     invalidates every cache describing the pre-update problem, so a warm
//     re-solve after a price mutation reaches the new problem's optimum.
//     An empty batch describes the same problem and invalidates nothing.
//  2. A fuel-cell capacity shrinking below the warm mu_j routes the iterate
//     through the clamp_iterate feasibility projection (whose mu/nu bounds
//     were once swapped — see ClampProjectsMuToCapacityAndNuToZero).
//  3. solve_budgeted never touches the per-step state, so N budgeted calls
//     of k iterations are bit-identical to one (N*k)-iteration solve_warm —
//     the identity that makes per-tick deadlines a scheduling concern, not
//     a numerics concern.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "admm/admg.hpp"
#include "admm/engine.hpp"
#include "admm/options.hpp"
#include "admm/solve_core.hpp"
#include "helpers.hpp"
#include "util/contract.hpp"

namespace ufc::admm {
namespace {

using ::ufc::testing::make_random_problem;
using ::ufc::testing::make_tiny_problem;

TEST(ProblemUpdateTest, EmptyDetectsAnyPopulatedBatch) {
  ProblemUpdate update;
  EXPECT_TRUE(update.empty());
  update.carbon_rates.emplace_back(0, 100.0);
  EXPECT_FALSE(update.empty());
}

TEST(ProblemUpdateTest, EmptyBatchKeepsAConvergedSolverConverged) {
  AdmgOptions options;
  options.record_trace = false;
  AdmgSolver solver(make_tiny_problem(), options);
  ASSERT_TRUE(solver.solve().converged);
  ASSERT_TRUE(solver.is_converged());
  const auto before = solver.checkpoint();

  solver.apply_update(ProblemUpdate{});

  EXPECT_TRUE(solver.is_converged());
  EXPECT_EQ(solver.checkpoint(), before);
}

TEST(ProblemUpdateTest, RejectsMalformedEntriesWithoutCommitting) {
  AdmgSolver solver(make_tiny_problem());
  const double price_before = solver.problem().datacenters[0].grid_price;

  ProblemUpdate bad_index;
  bad_index.grid_prices.emplace_back(5, 40.0);  // Only 2 datacenters.
  EXPECT_THROW(solver.apply_update(bad_index), ContractViolation);

  ProblemUpdate bad_arrival_index;
  bad_arrival_index.arrivals.emplace_back(2, 100.0);  // Only 2 front-ends.
  EXPECT_THROW(solver.apply_update(bad_arrival_index), ContractViolation);

  ProblemUpdate nan_value;
  nan_value.grid_prices.emplace_back(0, std::nan(""));
  EXPECT_THROW(solver.apply_update(nan_value), ContractViolation);

  ProblemUpdate inf_value;
  inf_value.arrivals.emplace_back(0, std::numeric_limits<double>::infinity());
  EXPECT_THROW(solver.apply_update(inf_value), ContractViolation);

  ProblemUpdate negative;
  negative.fuel_cell_caps.emplace_back(0, -0.1);
  EXPECT_THROW(solver.apply_update(negative), ContractViolation);

  // Aggregate infeasibility: arrivals beyond total server capacity (1800).
  ProblemUpdate overload;
  overload.arrivals.emplace_back(0, 5000.0);
  EXPECT_THROW(solver.apply_update(overload), ContractViolation);

  // A batch with one bad entry must not half-apply its good entries.
  ProblemUpdate mixed;
  mixed.grid_prices.emplace_back(0, 55.0);
  mixed.carbon_rates.emplace_back(9, 100.0);
  EXPECT_THROW(solver.apply_update(mixed), ContractViolation);
  EXPECT_EQ(solver.problem().datacenters[0].grid_price, price_before);
}

TEST(ProblemUpdateTest, CommitsSparseEntriesWithNormalization) {
  AdmgSolver solver(make_tiny_problem());
  const double sigma = solver.workload_scale();

  ProblemUpdate update;
  update.arrivals.emplace_back(1, 500.0);
  update.grid_prices.emplace_back(0, 45.0);
  update.carbon_rates.emplace_back(1, 300.0);
  update.fuel_cell_caps.emplace_back(0, 0.2);
  solver.apply_update(update);

  // The live (normalized) problem carries arrivals / sigma; prices, carbon
  // rates and capacities are MW/$ quantities invariant under normalization.
  EXPECT_DOUBLE_EQ(solver.problem().arrivals[1], 500.0 / sigma);
  EXPECT_DOUBLE_EQ(solver.problem().datacenters[0].grid_price, 45.0);
  EXPECT_DOUBLE_EQ(solver.problem().datacenters[1].carbon_rate, 300.0);
  EXPECT_DOUBLE_EQ(solver.problem().datacenters[0].fuel_cell_capacity_mw, 0.2);
  // Untouched entries stay put.
  EXPECT_DOUBLE_EQ(solver.problem().arrivals[0], 600.0 / sigma);
  EXPECT_DOUBLE_EQ(solver.problem().datacenters[1].grid_price, 90.0);
}

// Regression pin for the swapped-bounds bug: an earlier clamp_iterate applied
// the fuel-cell capacity bound to nu (grid draw, unbounded above) and left mu
// with only the nonnegativity clamp, so a capacity shrink never actually
// projected the warm dispatch back into the box.
TEST(ProblemUpdateTest, ClampProjectsMuToCapacityAndNuToZero) {
  const UfcProblem problem = make_tiny_problem();
  AdmgSolver solver(problem, AdmgOptions{});
  const std::size_t m = problem.num_front_ends();
  const std::size_t n = problem.num_datacenters();
  const std::size_t mn = m * n;
  ASSERT_EQ(solver.iterate_size(), 3 * mn + 3 * n);

  // Stacking: lambda (mn), a (mn), varphi (mn), mu (n), nu (n), phi (n).
  std::vector<double> flat(solver.iterate_size(), 0.0);
  flat[0] = -2.0;                     // lambda: clamped to 0.
  flat[mn] = -3.0;                    // a: clamped to 0.
  flat[2 * mn] = -4.0;                // varphi: dual, untouched.
  flat[3 * mn + 0] = 100.0;           // mu_0 far above capacity.
  flat[3 * mn + 1] = 0.01;            // mu_1 inside the box.
  flat[3 * mn + n + 0] = -5.0;        // nu_0 negative grid draw.
  flat[3 * mn + n + 1] = 75.0;        // nu_1: large but legal grid draw.
  flat[3 * mn + 2 * n] = -6.0;        // phi: dual, untouched.
  solver.clamp_iterate(flat);

  EXPECT_EQ(flat[0], 0.0);
  EXPECT_EQ(flat[mn], 0.0);
  EXPECT_EQ(flat[2 * mn], -4.0);
  EXPECT_EQ(flat[3 * mn + 0],
            problem.datacenters[0].fuel_cell_capacity_mw);
  EXPECT_EQ(flat[3 * mn + 1], 0.01);
  EXPECT_EQ(flat[3 * mn + n + 0], 0.0);
  // The other half of the regression: grid draw must NOT be truncated at the
  // fuel-cell capacity (0.24 MW here).
  EXPECT_EQ(flat[3 * mn + n + 1], 75.0);
  EXPECT_EQ(flat[3 * mn + 2 * n], -6.0);
}

// The warm-start bugfix this PR exists for: shrink a fuel-cell capacity
// below the converged dispatch mid-stream and the warm iterate must be
// repaired through the feasibility projection at apply_update time — before
// the next step consumes it — landing mu_j exactly on the new bound.
TEST(ProblemUpdateTest, CapacityShrinkRepairsWarmIterate) {
  AdmgOptions options;
  options.record_trace = false;
  AdmgSolver solver(make_tiny_problem(), options);
  ASSERT_TRUE(solver.solve().converged);
  // The pricey-clean datacenter (grid 90 > fuel cell 80) dispatches its
  // fuel cell at the optimum; the shrink below that dispatch is what makes
  // the warm iterate infeasible.
  const double mu_before = solver.mu()[1];
  ASSERT_GT(mu_before, 1e-6);

  const double new_cap = 0.5 * mu_before;
  ProblemUpdate shrink;
  shrink.fuel_cell_caps.emplace_back(1, new_cap);
  solver.apply_update(shrink);

  // Repaired immediately (no step has run): clamped from above lands
  // bitwise on the new capacity, and the whole iterate is back in the box.
  EXPECT_EQ(solver.mu()[1], new_cap);
  for (std::size_t j = 0; j < solver.problem().num_datacenters(); ++j) {
    EXPECT_GE(solver.mu()[j], 0.0);
    EXPECT_LE(solver.mu()[j],
              solver.problem().datacenters[j].fuel_cell_capacity_mw);
    EXPECT_GE(solver.nu()[j], 0.0);
  }

  // The repaired warm start must carry a healthy re-solve: converged, still
  // within the shrunken capacity, and matching a cold solve of the mutated
  // problem.
  const AdmgReport warm = solver.solve_warm();
  ASSERT_TRUE(warm.converged);
  // The GBS correction interpolates across blocks, so the converged iterate
  // may sit O(tolerance) outside the box; what must never happen again is a
  // dispatch at the OLD capacity (2x the new one) surviving the re-solve.
  EXPECT_LE(solver.mu()[1], new_cap * (1.0 + 1e-2));

  UfcProblem mutated = make_tiny_problem();
  mutated.datacenters[1].fuel_cell_capacity_mw = new_cap;
  const AdmgReport cold = solve_admg(mutated, options);
  ASSERT_TRUE(cold.converged);
  EXPECT_NEAR(warm.breakdown.ufc, cold.breakdown.ufc,
              1e-3 * std::abs(cold.breakdown.ufc));
}

// Applying an update changes the iterate by AT MOST the feasibility
// projection: primal entries are clamped into the (possibly unchanged) box
// and duals are bit-untouched. The converged iterate can carry O(tolerance)
// GBS-correction negatives, so the repair legitimately fires even without a
// capacity shrink — but it must never move a feasible coordinate.
TEST(ProblemUpdateTest, UpdateRepairIsExactlyTheFeasibilityProjection) {
  AdmgOptions options;
  options.record_trace = false;
  AdmgSolver solver(make_tiny_problem(), options);
  ASSERT_TRUE(solver.solve().converged);
  const Mat lambda_before = solver.lambda();
  const Mat varphi_before = solver.varphi();
  const Vec mu_before = solver.mu();
  const Vec nu_before = solver.nu();
  const Vec phi_before = solver.phi();

  ProblemUpdate update;
  update.grid_prices.emplace_back(0, 35.0);
  update.carbon_rates.emplace_back(1, 400.0);
  solver.apply_update(update);

  for (std::size_t i = 0; i < lambda_before.rows(); ++i) {
    for (std::size_t j = 0; j < lambda_before.cols(); ++j) {
      EXPECT_EQ(solver.lambda()(i, j), std::max(0.0, lambda_before(i, j)));
      EXPECT_EQ(solver.varphi()(i, j), varphi_before(i, j));
    }
  }
  for (std::size_t j = 0; j < mu_before.size(); ++j) {
    const double cap = solver.problem().datacenters[j].fuel_cell_capacity_mw;
    EXPECT_EQ(solver.mu()[j], std::clamp(mu_before[j], 0.0, cap));
    EXPECT_EQ(solver.nu()[j], std::max(0.0, nu_before[j]));
    EXPECT_EQ(solver.phi()[j], phi_before[j]);
  }
}

// A mid-stream price mutation must invalidate the certification gate: the
// warm re-solve has to reach the mutated problem's optimum, not certify
// around the old one.
TEST(ProblemUpdateTest, WarmSolveMatchesColdSolveAfterPriceInversion) {
  const UfcProblem problem = make_random_problem(17, 6, 4);

  AdmgOptions options;
  options.record_trace = false;
  AdmgSolver solver(problem, options);
  ASSERT_TRUE(solver.solve().converged);

  // Invert the price order: the coordinates the old optimum leaves at zero
  // are exactly the ones the new optimum routes to.
  ProblemUpdate repricing;
  for (std::size_t j = 0; j < problem.num_datacenters(); ++j) {
    repricing.grid_prices.emplace_back(
        j, j % 2 == 0 ? 140.0 : 12.0);
    repricing.carbon_rates.emplace_back(j, j % 2 == 0 ? 900.0 : 120.0);
  }
  solver.apply_update(repricing);
  const AdmgReport warm = solver.solve_warm();
  ASSERT_TRUE(warm.converged);

  UfcProblem mutated = problem;
  for (const auto& [j, price] : repricing.grid_prices)
    mutated.datacenters[j].grid_price = price;
  for (const auto& [j, rate] : repricing.carbon_rates)
    mutated.datacenters[j].carbon_rate = rate;
  const AdmgReport cold = solve_admg(mutated, options);
  ASSERT_TRUE(cold.converged);

  EXPECT_NEAR(warm.breakdown.ufc, cold.breakdown.ufc,
              1e-3 * std::abs(cold.breakdown.ufc));
  EXPECT_NEAR(warm.breakdown.fuel_cell_mwh, cold.breakdown.fuel_cell_mwh,
              1e-3 * std::max(1.0, cold.breakdown.fuel_cell_mwh));
}

// A front-end idle before the update has an all-zero lambda row, so its
// block's root search has no previous s to start from and starts at the
// mean latency instead. The warm re-solve must still reach the cold plan.
TEST(ProblemUpdateTest, FrontEndWakingFromZeroArrivalMatchesColdSolve) {
  UfcProblem idle = make_random_problem(23, 5, 3);
  const double arrival = idle.arrivals[2];
  idle.arrivals[2] = 0.0;

  AdmgOptions options;
  options.record_trace = false;
  AdmgSolver solver(idle, options);
  ASSERT_TRUE(solver.solve().converged);
  for (std::size_t j = 0; j < idle.num_datacenters(); ++j)
    ASSERT_EQ(solver.lambda()(2, j), 0.0);

  ProblemUpdate wake;
  wake.arrivals.emplace_back(2, arrival);
  solver.apply_update(wake);
  const AdmgReport warm = solver.solve_warm();
  ASSERT_TRUE(warm.converged);

  UfcProblem woken = idle;
  woken.arrivals[2] = arrival;
  const AdmgReport cold = solve_admg(woken, options);
  ASSERT_TRUE(cold.converged);

  EXPECT_NEAR(warm.breakdown.ufc, cold.breakdown.ufc,
              1e-3 * std::abs(cold.breakdown.ufc));
  // The plan itself, in servers: every route within 0.1% of the woken
  // front-end's arrivals.
  EXPECT_LT(max_abs_diff(warm.solution.lambda, cold.solution.lambda),
            1e-3 * arrival);
  double routed = 0.0;
  for (std::size_t j = 0; j < woken.num_datacenters(); ++j)
    routed += warm.solution.lambda(2, j);
  EXPECT_NEAR(routed, arrival, 1e-3 * arrival);
}

/// Budget options: a tolerance far below reach so every run spends its full
/// iteration allowance, making trajectories comparable step for step.
AdmgOptions never_converge_options() {
  AdmgOptions options;
  options.tolerance = 1e-12;
  options.record_trace = false;
  options.warn_on_unconverged = false;
  return options;
}

TEST(AdmgBudget, ResumeBitIdenticalToOneLongSolve) {
  const UfcProblem problem = make_random_problem(5, 5, 3);
  constexpr int kChunks = 8;
  constexpr int kBudget = 5;

  AdmgOptions options = never_converge_options();
  options.max_iterations = kChunks * kBudget;
  AdmgSolver one_shot(problem, options);
  const AdmgReport long_report = one_shot.solve();
  EXPECT_EQ(long_report.iterations, kChunks * kBudget);
  EXPECT_EQ(long_report.status, SolveStatus::BudgetExhausted);

  AdmgSolver chunked(problem, never_converge_options());
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    const AdmgReport report = chunked.solve_budgeted(kBudget);
    EXPECT_EQ(report.iterations, kBudget);
    EXPECT_EQ(report.status, SolveStatus::BudgetExhausted);
  }

  // The checkpoint serializes the complete iterate (primal, dual, last
  // change), so byte equality is bit-identity of the full solver state.
  EXPECT_EQ(one_shot.checkpoint(), chunked.checkpoint());
}

TEST(AdmgBudget, ResumeBitIdenticalUnderThreads) {
  const UfcProblem problem = make_random_problem(11, 8, 4);
  constexpr int kChunks = 6;
  constexpr int kBudget = 7;

  AdmgOptions options = never_converge_options();
  options.threads = 4;
  options.max_iterations = kChunks * kBudget;
  AdmgSolver one_shot(problem, options);
  one_shot.solve();

  AdmgOptions chunked_options = never_converge_options();
  chunked_options.threads = 4;
  AdmgSolver chunked(problem, chunked_options);
  for (int chunk = 0; chunk < kChunks; ++chunk)
    chunked.solve_budgeted(kBudget);

  EXPECT_EQ(one_shot.checkpoint(), chunked.checkpoint());
}

TEST(AdmgBudget, ResumesAcrossCallsUntilConverged) {
  AdmgOptions options;
  options.record_trace = false;
  AdmgSolver solver(make_tiny_problem(), options);

  int calls_to_converge = 0;
  int exhausted_calls = 0;
  SolveStatus last = SolveStatus::BudgetExhausted;
  for (int call = 0; call < 400 && last != SolveStatus::Converged; ++call) {
    last = solver.solve_budgeted(5).status;
    ++calls_to_converge;
    if (last == SolveStatus::BudgetExhausted) ++exhausted_calls;
  }
  ASSERT_EQ(last, SolveStatus::Converged);
  // The tiny problem needs more than one 5-iteration call, so the early
  // calls must have reported best-so-far and resumed.
  EXPECT_GT(calls_to_converge, 1);
  EXPECT_EQ(exhausted_calls, calls_to_converge - 1);
  EXPECT_TRUE(solver.is_converged());

  // Once converged on a static problem, the next call certifies again
  // almost for free — the warm iterate is already at the optimum.
  const AdmgReport after = solver.solve_budgeted(5);
  EXPECT_EQ(after.status, SolveStatus::Converged);
  EXPECT_LE(after.iterations, 2);
}

TEST(AdmgBudget, ConvergedBudgetedSolveReportsConverged) {
  AdmgOptions options;
  options.record_trace = false;
  AdmgSolver solver(make_tiny_problem(), options);
  // A generous single budget converges and says so through the status.
  const AdmgReport report = solver.solve_budgeted(2000);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.status, SolveStatus::Converged);
  EXPECT_LT(report.iterations, 2000);

  // A tiny budget on a fresh solver runs out and reports best-so-far.
  AdmgSolver fresh(make_tiny_problem(), options);
  const AdmgReport exhausted = fresh.solve_budgeted(2);
  EXPECT_FALSE(exhausted.converged);
  EXPECT_EQ(exhausted.status, SolveStatus::BudgetExhausted);
  EXPECT_EQ(exhausted.iterations, 2);
  EXPECT_STREQ(to_string(exhausted.status), "budget_exhausted");
}

TEST(AdmgBudget, RejectsNonPositiveBudget) {
  AdmgSolver solver(make_tiny_problem());
  EXPECT_THROW(solver.solve_budgeted(0), ContractViolation);
  EXPECT_THROW(solver.solve_budgeted(-3), ContractViolation);
}

}  // namespace
}  // namespace ufc::admm
