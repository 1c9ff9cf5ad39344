// Distributed 4-block ADM-G for UFC maximization (paper §III-C).
//
// Solves the ADMM form (13) of the UFC program with the prediction-
// correction scheme of He, Tao & Yuan (ADM-G): an alternating ADMM pass in
// the forward order lambda -> mu -> nu -> a -> duals, followed by a Gaussian
// back substitution correction in the backward order. Unlike plain
// multi-block ADMM, ADM-G provably converges without strong convexity —
// which matters here because real carbon-cost policies (flat taxes, linear
// cap-and-trade) are merely convex.
//
// The Grid and FuelCell baseline strategies of the paper are the same
// program with one block pinned (mu = 0, respectively nu = 0); the solver
// supports both via BlockPinning, specializing the back-substitution to the
// remaining blocks.
//
// AdmgSolver is the synchronous in-process driver: a thin facade over
// AdmgEngine + InProcessExecutor (engine.hpp), which own the iteration
// skeleton and the block arithmetic respectively. The options/trace/report
// vocabulary (AdmgOptions, AdmgTrace, SolveCore) lives in engine.hpp and is
// shared by every driver.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "admm/engine.hpp"

namespace ufc::admm {

/// Report of a synchronous in-process solve; all fields live in the shared
/// SolveCore.
struct AdmgReport : SolveCore {};

class AdmgSolver {
 public:
  /// Validates the problem; for PinNu additionally requires every
  /// datacenter's fuel-cell capacity to cover its peak demand.
  AdmgSolver(const UfcProblem& problem, AdmgOptions options = {})
      : exec_(problem, options) {}

  /// Runs ADM-G from the paper's cold start (all variables zero) until the
  /// scaled primal residuals drop below tolerance or max_iterations.
  AdmgReport solve();

  /// Runs ADM-G from the *current* state (primal and dual) instead of the
  /// cold start: after `apply_update`, or after `restore()`. Adjacent hours
  /// have similar prices/arrivals, so the previous optimum and duals are an
  /// excellent initial point (see the warm-start benches).
  AdmgReport solve_warm();

  /// solve_warm under a per-call iteration budget (the receding-horizon
  /// tick: src/ctrl re-solves every tick with `max_iterations` capped at the
  /// tick deadline). Returns the best-so-far iterate with report.status
  /// telling Converged from BudgetExhausted; the executor keeps that
  /// iterate, so the next call resumes exactly where this one stopped.
  /// Without acceleration the budget seam never touches
  /// the iteration arithmetic: N budgeted calls of k iterations produce
  /// iterates bit-identical to one (N*k)-iteration solve_warm.
  AdmgReport solve_budgeted(int max_iterations);

  /// Back to the paper's cold start (all variables zero); the next
  /// solve_warm behaves like solve(). The receding-horizon cold baseline
  /// (bench_controller) re-solves every tick from here.
  void reset() { exec_.reset(); }

  /// Applies a sparse tick update to the live problem (engine.hpp
  /// ProblemUpdate) — the one way to change the problem under a warm
  /// iterate: validates the batch, mutates the problem in place, keeps the
  /// construction-time workload normalization, invalidates the
  /// certification caches and projects the warm iterate back into the
  /// primal box if a capacity shrank under it. An empty batch is a no-op.
  void apply_update(const ProblemUpdate& update) {
    exec_.apply_update(update);
  }

  /// One prediction + correction step on the current state. Exposed so
  /// tests can compare the message-passing runtime iterate-by-iterate.
  void step() { exec_.step(0); }

  // Read access to the current iterate (post-correction), in *normalized*
  // workload units (multiply routing variables by workload_scale() to get
  // servers). The distributed runtime exposes the same normalized iterate,
  // so the two are directly comparable.
  const Mat& lambda() const { return exec_.lambda(); }
  const Vec& mu() const { return exec_.mu(); }
  const Vec& nu() const { return exec_.nu(); }
  const Mat& a() const { return exec_.a(); }
  const Vec& phi() const { return exec_.phi(); }
  const Mat& varphi() const { return exec_.varphi(); }

  /// Residuals of the current iterate (normalized workload units / MW).
  double balance_residual() const { return exec_.balance_residual(); }
  double copy_residual() const { return exec_.copy_residual(); }
  /// Largest per-variable movement of the last step (the ADMM dual-residual
  /// proxy), in normalized units.
  double last_change() const { return exec_.last_change(); }
  /// True when both scaled primal residuals and the scaled last change are
  /// below tolerance.
  bool is_converged() const { return exec_.is_converged(); }

  double workload_scale() const { return exec_.workload_scale(); }
  /// The normalized problem the solver operates on.
  const UfcProblem& problem() const { return exec_.problem(); }
  const AdmgOptions& options() const { return exec_.options(); }

  /// True iff every entry of every block (primal and dual) is finite.
  bool iterate_finite() const { return exec_.iterate_finite(); }

  /// Serializes the complete iterate (primal, dual, last-change tracking)
  /// with the shared wire codec. A restored solver continues bit-identically
  /// to one that never paused.
  std::vector<std::byte> checkpoint() const { return exec_.checkpoint(); }
  /// Restores a checkpoint() image. The solver must hold a problem with the
  /// same dimensions and workload normalization; anything else (including a
  /// truncated or mutated image) throws ufc::ContractViolation.
  void restore(std::span<const std::byte> bytes) { exec_.restore(bytes); }

 private:
  InProcessExecutor exec_;
};

/// Convenience wrapper: construct, solve, return the report.
AdmgReport solve_admg(const UfcProblem& problem, const AdmgOptions& options = {});

}  // namespace ufc::admm
