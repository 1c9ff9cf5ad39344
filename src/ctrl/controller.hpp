// The receding-horizon controller: one tenant's streaming re-solve loop.
//
// Each control tick the controller (1) applies the tick's sparse problem
// update to its live solver — invalidating the certification caches and
// repairing the warm iterate through AdmgSolver::apply_update — and
// (2) re-solves under a bounded iteration budget via solve_budgeted. A tick
// that exhausts its budget returns the best-so-far iterate with status
// BudgetExhausted and the next tick resumes exactly where it stopped, so a
// slow tick degrades solution freshness, never correctness.
//
// The tick deadline is expressed purely as an iteration budget: this layer
// never reads a clock (enforced by the no-wall-clock-in-ctrl-tick analyzer
// rule), which is what makes N-tick runs bit-reproducible and lets the
// budget-resume identity (N ticks of k iterations == one N*k solve) be
// tested exactly.
#pragma once

#include <cstdint>
#include <string>

#include "admm/admg.hpp"
#include "obs/metrics.hpp"

namespace ufc::ctrl {

struct ControllerOptions {
  /// Iteration budget per tick (the deadline, in solver steps).
  int max_iters_per_tick = 50;
  /// Baseline mode: forget the warm iterate before every tick and re-solve
  /// from the paper's cold start. Exists so warm-start savings are
  /// measurable against an otherwise identical loop.
  bool cold_restart = false;
  admm::AdmgOptions admg;
};

/// What one tick produced: the solver report plus the tick's index.
struct TickReport {
  int tick = 0;
  admm::AdmgReport report;
};

class Controller {
 public:
  Controller(const UfcProblem& problem, ControllerOptions options);

  /// Runs one control tick: apply `update` (skipped when empty), optionally
  /// cold-restart, then solve under the per-tick budget. The report's
  /// status distinguishes Converged from BudgetExhausted; either way the
  /// solver keeps the resulting iterate for the next tick.
  TickReport tick(const admm::ProblemUpdate& update);

  int ticks() const { return ticks_; }
  int converged_ticks() const { return converged_ticks_; }
  int budget_exhausted_ticks() const { return budget_exhausted_ticks_; }
  std::int64_t total_iterations() const { return total_iterations_; }

  admm::AdmgSolver& solver() { return solver_; }
  const admm::AdmgSolver& solver() const { return solver_; }
  const ControllerOptions& options() const { return options_; }

  /// Adds this controller's lifetime totals into `out` under
  /// `<prefix>.ticks`, `.iterations`, `.converged_ticks`,
  /// `.budget_exhausted` and the `.tick_iterations` histogram
  /// (default_iteration_boundaries, so records merge across controllers).
  void record_metrics(obs::MetricsRegistry& out,
                      const std::string& prefix) const;

 private:
  ControllerOptions options_;
  admm::AdmgSolver solver_;
  obs::Histogram tick_iterations_;
  int ticks_ = 0;
  int converged_ticks_ = 0;
  int budget_exhausted_ticks_ = 0;
  std::int64_t total_iterations_ = 0;
};

}  // namespace ufc::ctrl
