// Active-set screening: the opt-in fast path must (a) leave the default
// configuration bit-identical to the pinned hexfloat baselines, (b)
// degenerate to the exact full iteration when screening runs a full pass
// every step, and (c) converge to the same optimum as the unscreened
// solve — verified against the reference solve and the first-order (KKT)
// checker at three problem sizes.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>

#include "admm/admg.hpp"
#include "admm/engine.hpp"
#include "admm/options.hpp"
#include "helpers.hpp"
#include "math/sort_projection.hpp"
#include "opt/kkt.hpp"
#include "util/config.hpp"
#include "util/contract.hpp"

namespace ufc::admm {
namespace {

using ::ufc::testing::make_random_problem;
using ::ufc::testing::make_tiny_problem;

AdmgOptions fast_path_options() {
  AdmgOptions options;
  options.screening.enabled = true;
  return options;
}

/// Validates every lambda row of the solver's next prediction as a
/// projected-gradient fixed point of its sub-problem (eq. (17)), built from
/// a snapshot of the (a, varphi) state the step consumes, projecting with
/// the test-side sort oracle. Catches both a wrong projection threshold and
/// an incorrectly screened-out coordinate: the check runs over the full row,
/// not the support.
void expect_lambda_rows_kkt_optimal(AdmgSolver& solver) {
  const Mat a_snap = solver.a();
  const Mat varphi_snap = solver.varphi();
  solver.step();
  const Mat& lambda = solver.lambda();
  const UfcProblem& p = solver.problem();
  const std::size_t m = p.num_front_ends();
  const std::size_t n = p.num_datacenters();
  const double rho = solver.options().rho;
  for (std::size_t i = 0; i < m; ++i) {
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
    auto project = [&](const Vec& x) {
      return ::ufc::testing::sort_project_simplex(x, arrival);
    };
    const auto check = check_first_order_optimality(row, gradient, project,
                                                    1e-6, 1e-5, arrival);
    EXPECT_TRUE(check.passed)
        << "row " << i << " residual " << check.residual;
  }
}

TEST(ActiveSetScreening, DefaultOptionsKeepThePinnedConfiguration) {
  // The bit-pinned baselines (test_engine.cpp) assume no screening; the
  // fast path must stay opt-in.
  const AdmgOptions defaults;
  EXPECT_FALSE(defaults.screening.enabled);
  EXPECT_GE(defaults.screening.full_pass_every, 1);
}

TEST(ActiveSetScreening, DefaultSolveStaysBitIdenticalToPinnedBaseline) {
  // Duplicated anchor values from EngineEquivalence.PinnedFullSolveReport:
  // the screening machinery must not perturb the default path.
  AdmgSolver solver(make_tiny_problem(), {});
  const AdmgReport report = solver.solve();
  EXPECT_EQ(report.iterations, 62);
  EXPECT_EQ(report.breakdown.ufc, -0x1.69eb964315788p+4);
  EXPECT_EQ(report.balance_residual, 0x1.419496b9a147bp-20);
  EXPECT_EQ(report.copy_residual, 0x1.a42bebcp-27);
}

TEST(ActiveSetScreening, FullPassEveryStepIsBitIdenticalToUnscreened) {
  // With full_pass_every = 1 every step is an unrestricted verification
  // pass, so screening reduces to pure bookkeeping: the iterates must match
  // the unscreened engine bit for bit, step by step.
  AdmgOptions screened;
  screened.screening.enabled = true;
  screened.screening.full_pass_every = 1;
  AdmgSolver a(make_tiny_problem(), {});
  AdmgSolver b(make_tiny_problem(), screened);
  for (int k = 0; k < 6; ++k) {
    a.step();
    b.step();
    EXPECT_EQ(max_abs_diff(a.lambda(), b.lambda()), 0.0) << "step " << k;
    EXPECT_EQ(max_abs_diff(a.a(), b.a()), 0.0) << "step " << k;
    EXPECT_EQ(max_abs_diff(a.varphi(), b.varphi()), 0.0) << "step " << k;
    EXPECT_EQ(a.last_change(), b.last_change()) << "step " << k;
  }
}

TEST(ActiveSetScreening, ScreenedSolveMatchesReferenceAtThreeSizes) {
  struct Case {
    std::size_t m, n;
    std::uint64_t seed;  // 0 = the hand-built tiny problem
  };
  constexpr std::array<Case, 3> cases = {{{2, 2, 0}, {12, 4, 3}, {32, 8, 4}}};
  for (const auto& c : cases) {
    const UfcProblem problem =
        c.seed == 0 ? make_tiny_problem() : make_random_problem(c.seed, c.m, c.n);
    AdmgOptions reference_options;
    reference_options.max_iterations = 8000;
    AdmgSolver reference(problem, reference_options);
    const AdmgReport ref = reference.solve();

    AdmgOptions fast = fast_path_options();
    fast.max_iterations = 8000;
    AdmgSolver screened(problem, fast);
    const AdmgReport scr = screened.solve();

    ASSERT_TRUE(ref.converged) << c.m << "x" << c.n;
    ASSERT_TRUE(scr.converged) << c.m << "x" << c.n;
    // Both runs stop at the shared tolerance; the iterates agree to the
    // tolerance scale, not bitwise (the restricted solves project shorter
    // vectors, which round differently and reorder the trajectory). The
    // solution is in raw workload units, so scale by the total arrivals.
    double total_arrivals = 0.0;
    for (const double a : problem.arrivals) total_arrivals += a;
    EXPECT_LE(max_abs_diff(ref.solution.lambda, scr.solution.lambda),
              1e-3 * total_arrivals)
        << c.m << "x" << c.n;
    EXPECT_NEAR(ref.breakdown.ufc, scr.breakdown.ufc,
                1e-3 * std::abs(ref.breakdown.ufc))
        << c.m << "x" << c.n;
  }
}

TEST(ActiveSetScreening, FastPathLambdaRowsAreKktOptimalAtThreeSizes) {
  struct Case {
    std::size_t m, n;
    std::uint64_t seed;
  };
  constexpr std::array<Case, 3> cases = {{{2, 2, 0}, {12, 4, 5}, {32, 8, 6}}};
  for (const auto& c : cases) {
    const UfcProblem problem =
        c.seed == 0 ? make_tiny_problem() : make_random_problem(c.seed, c.m, c.n);
    AdmgOptions fast = fast_path_options();
    fast.max_iterations = 500;
    AdmgSolver solver(problem, fast);
    (void)solver.solve();
    expect_lambda_rows_kkt_optimal(solver);
  }
}

TEST(ActiveSetScreening, ScreenedStepsGateConvergenceClaims) {
  AdmgOptions options = fast_path_options();
  InProcessExecutor executor(make_tiny_problem(), options);
  // Cold start: nothing verified yet.
  EXPECT_FALSE(executor.inputs_fresh(0));
  executor.step(0);
  // The first full pass grows the support from empty, so it resets the gate
  // rather than certifying (a full pass certifies only when the support is
  // stable under it).
  EXPECT_FALSE(executor.inputs_fresh(1));
  // Driving the executor to convergence requires a certified iterate: the
  // engine's gate consults inputs_fresh, so a converged run ends verified.
  AdmgEngine engine(options);
  const SolveCore core = engine.solve(executor, 1);
  ASSERT_TRUE(core.converged);
  EXPECT_TRUE(executor.inputs_fresh(0));
  EXPECT_TRUE(executor.is_converged());
  // Convergence happens on a full pass, so the next step is screened and
  // immediately revokes the certificate until the next verification.
  executor.step(0);
  EXPECT_FALSE(executor.inputs_fresh(0));
  EXPECT_FALSE(executor.is_converged());
}

TEST(ActiveSetScreening, UnscreenedExecutorIsAlwaysFresh) {
  InProcessExecutor executor(make_tiny_problem(), {});
  EXPECT_TRUE(executor.inputs_fresh(0));
  executor.step(0);
  EXPECT_TRUE(executor.inputs_fresh(1));
}

TEST(ActiveSetScreening, RestoreForcesReverification) {
  const UfcProblem problem = make_random_problem(9, 8, 3);
  AdmgOptions options = fast_path_options();
  InProcessExecutor executor(problem, options);
  for (int k = 0; k < 3; ++k) executor.step(k);
  const auto bytes = executor.checkpoint();

  InProcessExecutor restored(problem, options);
  restored.restore(bytes);
  // Screening bookkeeping is not serialized: the restored executor must not
  // trust any pre-restore certificate, and must re-verify with full passes
  // before it can claim convergence again.
  EXPECT_FALSE(restored.inputs_fresh(0));
  AdmgEngine engine(options);
  const SolveCore core = engine.solve(restored, 3);
  EXPECT_TRUE(core.converged);
  EXPECT_TRUE(restored.inputs_fresh(0));
}

TEST(ActiveSetScreening, RejectsPartialParticipation) {
  AdmgOptions options = fast_path_options();
  // Screening's support invariants assume every row re-solves every pass;
  // the straggler model violates that, so the combination is rejected.
  EXPECT_THROW(
      PartialParticipationExecutor(make_tiny_problem(), options, 0.5, 7),
      ContractViolation);
}

TEST(ActiveSetScreening, InvalidFullPassPeriodThrows) {
  AdmgOptions options;
  options.screening.enabled = true;
  options.screening.full_pass_every = 0;
  EXPECT_THROW(InProcessExecutor(make_tiny_problem(), options),
               ContractViolation);
}

TEST(ActiveSetScreening, OptionsParseScreeningKeys) {
  const Config config = Config::parse(
      "[solver]\n"
      "screening = true\n"
      "screening_full_pass_every = 4\n");
  const AdmgOptions options = options_from_config(config, {});
  EXPECT_TRUE(options.screening.enabled);
  EXPECT_EQ(options.screening.full_pass_every, 4);
}

}  // namespace
}  // namespace ufc::admm
