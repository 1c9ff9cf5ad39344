// SolveSession: the one per-slot solve path shared by every simulation
// driver (weekly comparison, storage accounting, batch scheduling).
//
// A session owns the strategy and the scenario-level fault model (fuel-cell
// outages), so drivers ask for "the report for hour t" instead of each
// re-implementing the slot set-up. Every slot is an independent cold solve,
// as in the paper (its Fig. 11 counts cold-start iterations); re-solving a
// changing problem from a warm iterate is the ctrl layer's job
// (AdmgSolver::apply_update under a tick stream).
#pragma once

#include <vector>

#include "sim/simulator.hpp"

namespace ufc::sim {

/// Applies every outage window covering `hour` to the slot problem (the
/// affected fuel cells produce nothing: mu_max_j = 0). Shared by the per-slot
/// solve path below and the ctrl layer's scenario tick stream, so both replay
/// the same fault model. Throws ContractViolation on an out-of-range
/// datacenter or an inverted window.
void apply_outages(UfcProblem& problem,
                   const std::vector<FuelCellOutage>& outages, int hour);

class SolveSession {
 public:
  SolveSession(admm::Strategy strategy, const SimulatorOptions& options);

  /// Solves the scenario's slot at `hour` (outages applied) from the
  /// paper's cold start.
  admm::AdmgReport solve(const traces::Scenario& scenario, int hour) const;

  admm::Strategy strategy() const { return strategy_; }

 private:
  admm::Strategy strategy_;
  SimulatorOptions options_;
};

/// Solves every simulated slot (hours 0, stride, 2*stride, ...) through one
/// SolveSession and returns the reports in slot order. When `slots_run` is
/// non-null it receives the hour index of each report.
std::vector<admm::AdmgReport> solve_all_slots(
    const traces::Scenario& scenario, admm::Strategy strategy,
    const SimulatorOptions& options, std::vector<int>* slots_run = nullptr);

}  // namespace ufc::sim
