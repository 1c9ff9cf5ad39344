#include "admm/admg.hpp"

#include "util/contract.hpp"

namespace ufc::admm {

AdmgReport AdmgSolver::solve() {
  exec_.reset();
  return solve_warm();
}

AdmgReport AdmgSolver::solve_warm() {
  AdmgEngine engine(exec_.options());
  AdmgReport report;
  static_cast<SolveCore&>(report) = engine.solve(exec_);
  return report;
}

AdmgReport AdmgSolver::solve_budgeted(int max_iterations) {
  UFC_EXPECTS(max_iterations > 0);
  // Same engine construction as solve_warm with only the iteration cap
  // overridden; the executor — and with it every per-step quantity — is
  // untouched, which is what makes budgeted resume bit-identical to one
  // long solve without acceleration.
  AdmgOptions budgeted = exec_.options();
  budgeted.max_iterations = max_iterations;
  // Exhausting a deliberate budget is the expected outcome of most ticks;
  // report.status carries it, the solver-health log should stay quiet.
  budgeted.warn_on_unconverged = false;
  AdmgEngine engine(budgeted);
  AdmgReport report;
  static_cast<SolveCore&>(report) = engine.solve(exec_);
  return report;
}

// ufc-lint: allow(expects-reach) — AdmgSolver's constructor validates the
// problem and every option before any work happens.
AdmgReport solve_admg(const UfcProblem& problem, const AdmgOptions& options) {
  AdmgSolver solver(problem, options);
  return solver.solve();
}

}  // namespace ufc::admm
