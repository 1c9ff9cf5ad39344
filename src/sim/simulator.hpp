// Time-slotted simulation driver (paper §IV).
//
// Runs a strategy over every hourly slot of a Scenario, solving one UFC
// program per slot with ADM-G (decisions are per-slot independent because
// the paper's workloads are interactive and non-deferrable), and collects
// the per-slot breakdowns and convergence statistics every figure reports.
#pragma once

#include <span>
#include <vector>

#include "admm/strategy.hpp"
#include "traces/scenario.hpp"
#include "util/config.hpp"

namespace ufc::sim {

struct SlotResult {
  int slot = 0;
  UfcBreakdown breakdown;
  int iterations = 0;
  bool converged = false;
};

/// One strategy's full-week outcome.
struct WeekResult {
  admm::Strategy strategy = admm::Strategy::Hybrid;
  std::vector<SlotResult> slots;

  double total_energy_cost() const;
  double total_carbon_cost() const;
  double total_carbon_tons() const;
  double total_ufc() const;
  double average_latency_ms() const;   ///< Mean of per-slot averages.
  double average_utilization() const;  ///< Mean fuel-cell utilization.

  std::vector<double> energy_cost_series() const;
  std::vector<double> latency_ms_series() const;
  std::vector<double> utilization_series() const;
  std::vector<double> iteration_series() const;
};

/// Scenario-level fault event: the fuel cells at one datacenter produce
/// nothing over hours [first_hour, last_hour) — mu_max_j = 0 — modeling a
/// generation outage. Quantifies the UFC degradation of losing on-site
/// generation (docs/ROBUSTNESS.md). Not meaningful under the FuelCell
/// strategy, which requires full fuel-cell capacity by construction.
struct FuelCellOutage {
  std::size_t datacenter = 0;
  int first_hour = 0;  ///< Inclusive.
  int last_hour = 0;   ///< Exclusive.
  bool covers(int hour) const {
    return hour >= first_hour && hour < last_hour;
  }
};

struct SimulatorOptions {
  SimulatorOptions() {
    // Simulation default: the paper-scale stopping accuracy (UFC changes by
    // < 0.03% versus a 10x tighter tolerance) with per-slot traces off.
    admg.tolerance = 3e-3;
    admg.max_iterations = 800;
    admg.record_trace = false;
  }
  admm::AdmgOptions admg;
  /// Simulate every `stride`-th hour (1 = all 168; sweeps use larger
  /// strides to trade resolution for speed).
  int stride = 1;
  /// Fuel-cell outage windows applied to the per-slot problems.
  std::vector<FuelCellOutage> outages;
};

/// Builds SimulatorOptions from INI [solver]/[simulate] sections (missing
/// keys keep the defaults). Recognized: solver.rho, solver.epsilon,
/// solver.tolerance, solver.max_iterations,
/// solver.gaussian_back_substitution, simulate.stride.
SimulatorOptions simulator_options_from(const Config& config);

/// Runs `strategy` over the scenario's hours.
WeekResult run_strategy_week(const traces::Scenario& scenario,
                             admm::Strategy strategy,
                             const SimulatorOptions& options = {});

/// All three strategies plus the paper's improvement indexes
/// I_hg, I_hf, I_fg (per-slot, percent).
struct StrategyComparison {
  WeekResult grid;
  WeekResult fuel_cell;
  WeekResult hybrid;
  std::vector<double> improvement_hg;  ///< Hybrid over Grid.
  std::vector<double> improvement_hf;  ///< Hybrid over FuelCell.
  std::vector<double> improvement_fg;  ///< FuelCell over Grid.

  double average_improvement_hg() const;
  double average_improvement_hf() const;
  double average_improvement_fg() const;
};

StrategyComparison compare_strategies(const traces::Scenario& scenario,
                                      const SimulatorOptions& options = {});

// ---------------------------------------------------------------------------
// Table I: single-site, demand-following cost comparison.

struct SingleSiteCosts {
  double grid = 0.0;       ///< Sum p(t) * demand(t).
  double fuel_cell = 0.0;  ///< Sum p0 * demand(t).
  double hybrid = 0.0;     ///< Sum min(p(t), p0) * demand(t).
};

/// Energy costs of the three strategies for a single datacenter whose
/// demand must be met hour by hour (the paper's Table I experiment).
SingleSiteCosts single_site_strategy_costs(std::span<const double> demand_mw,
                                           std::span<const double> price,
                                           double fuel_cell_price);

}  // namespace ufc::sim
