// Temporal peak-shaving extension: per-datacenter batteries layered on top
// of the per-slot UFC optimization.
//
// Each slot is first solved exactly as in the paper (routing + fuel-cell
// dispatch); a price-threshold battery policy then reshapes the *grid* side:
// charge when the site's effective grid price (LMP + marginal carbon cost)
// is below its low quantile, discharge against the grid draw when above its
// high quantile. Thresholds come from the site's own price history, the
// natural deployment of the paper's "predictable diurnal prices"
// observation.
#pragma once

#include "model/battery.hpp"
#include "sim/simulator.hpp"

namespace ufc::sim {

struct StoragePolicyOptions {
  BatterySpec battery;            ///< Same battery at every datacenter.
  double charge_quantile = 0.3;   ///< Charge below this price quantile.
  double discharge_quantile = 0.75;  ///< Discharge above this one.
};

struct StorageSlotResult {
  int slot = 0;
  double grid_cost_base = 0.0;  ///< Energy cost (grid + fuel cell) without storage, $.
  double grid_cost_with = 0.0;  ///< With storage (incl. charging energy), $.
  double carbon_tons_base = 0.0;
  double carbon_tons_with = 0.0;
  double discharged_mwh = 0.0;
  double charged_grid_mwh = 0.0;   ///< Grid energy spent charging.
  double peak_grid_mw_base = 0.0;  ///< Max per-site grid draw, no storage.
  double peak_grid_mw_with = 0.0;
};

struct StorageWeekResult {
  std::vector<StorageSlotResult> slots;
  double total_saving = 0.0;          ///< Base minus with-storage grid cost, $.
  double saving_pct = 0.0;            ///< Relative to the base grid cost.
  double peak_reduction_pct = 0.0;    ///< Reduction of the weekly peak draw.
  double carbon_delta_tons = 0.0;     ///< With-storage minus base (can be +/-).
};

/// A source counts as running only above this share of the site's load
/// (nu + mu). Below it the dispatch is rounding residue of the solve: where
/// the mu block clamps to zero, the Gaussian back substitution leaves mu
/// near +-1e-15 MW.
inline constexpr double kRunningSourceShare = 1e-9;

/// What one discharged MWh is worth at a site drawing `nu` MW from the grid
/// at effective price `eff` and `mu` MW from fuel cells at `p0`: the
/// priciest source running (kRunningSourceShare), or 0 when neither runs.
/// Negative draws count as zero.
double discharge_value(double nu, double mu, double eff, double p0);

/// Runs the Hybrid strategy over the scenario with batteries at every
/// datacenter and reports the grid-side savings and peak shaving. A slot
/// discharges when discharge_value reaches the site's high price quantile.
StorageWeekResult run_storage_week(const traces::Scenario& scenario,
                                   const StoragePolicyOptions& policy,
                                   const SimulatorOptions& options = {});

/// Clairvoyant upper bound: per-site dynamic program over a discretized
/// state of charge, using the week's actual prices and the solved hybrid
/// dispatch (the paper argues prices and workloads are predictable, so this
/// bound is near-achievable). Same peak guard as the threshold policy.
struct OptimalStorageOptions {
  BatterySpec battery;
  int soc_levels = 40;  ///< State-of-charge discretization.
};

StorageWeekResult run_storage_week_optimal(
    const traces::Scenario& scenario, const OptimalStorageOptions& options,
    const SimulatorOptions& sim_options = {});

}  // namespace ufc::sim
