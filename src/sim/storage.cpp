#include "sim/storage.hpp"

#include <algorithm>
#include <cmath>

#include "sim/session.hpp"
#include "util/contract.hpp"
#include "util/stats.hpp"

namespace ufc::sim {

namespace {

/// Effective price of one more MWh of grid energy at site j in slot t:
/// LMP plus the marginal carbon cost.
double effective_price(const traces::Scenario& scenario, std::size_t slot,
                       std::size_t j, double carbon_tax_per_ton) {
  return scenario.prices()(slot, j) +
         scenario.carbon_rates()(slot, j) / 1000.0 * carbon_tax_per_ton;
}

/// Value of displacing `delta` MWh of running generation, priciest first.
double displacement_gain(double delta, double nu, double mu, double eff,
                         double p0) {
  if (eff >= p0) {
    const double from_grid = std::min(delta, nu);
    return eff * from_grid + p0 * std::min(delta - from_grid, mu);
  }
  const double from_fc = std::min(delta, mu);
  return p0 * from_fc + eff * std::min(delta - from_fc, nu);
}

}  // namespace

double discharge_value(double nu, double mu, double eff, double p0) {
  nu = std::max(0.0, nu);
  mu = std::max(0.0, mu);
  const double running = kRunningSourceShare * (nu + mu);
  return std::max(nu > running ? eff : 0.0, mu > running ? p0 : 0.0);
}

StorageWeekResult run_storage_week(const traces::Scenario& scenario,
                                   const StoragePolicyOptions& policy,
                                   const SimulatorOptions& options) {
  UFC_EXPECTS(policy.charge_quantile >= 0.0 && policy.charge_quantile <= 1.0);
  UFC_EXPECTS(policy.discharge_quantile >= policy.charge_quantile);
  UFC_EXPECTS(policy.discharge_quantile <= 1.0);

  const std::size_t n = scenario.num_datacenters();
  const double tax = scenario.config().carbon_tax;
  const double p0 = scenario.config().fuel_cell_price;

  // Per-site thresholds over the *marginal energy value* the battery can
  // displace: grid at the effective price, or fuel cells at p0 (the hybrid
  // switches to fuel cells exactly when grid is expensive, so a grid-only
  // view would find nothing left to shave at peak).
  std::vector<double> charge_below(n), discharge_above(n);
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<double> values;
    values.reserve(static_cast<std::size_t>(scenario.hours()));
    for (int t = 0; t < scenario.hours(); ++t) {
      const double eff =
          effective_price(scenario, static_cast<std::size_t>(t), j, tax);
      values.push_back(std::min(eff, p0));
    }
    charge_below[j] = percentile(values, 100.0 * policy.charge_quantile);
    discharge_above[j] = percentile(values, 100.0 * policy.discharge_quantile);
    // Never charge at prices the round trip cannot recover.
    charge_below[j] = std::min(
        charge_below[j],
        policy.battery.round_trip_efficiency * discharge_above[j]);
  }

  std::vector<Battery> batteries(n, Battery(policy.battery));

  // Pass 1: solve every slot once (shared by the base and with-storage
  // accounting) and learn each site's grid-draw profile so charging never
  // creates a new peak.
  std::vector<int> slots_run;
  std::vector<admm::AdmgReport> reports =
      solve_all_slots(scenario, admm::Strategy::Hybrid, options, &slots_run);
  std::vector<double> charge_headroom(n);  // grid-draw cap while charging
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<double> draws;
    draws.reserve(reports.size());
    for (const auto& report : reports)
      draws.push_back(std::max(0.0, report.solution.nu[j]));
    charge_headroom[j] = max_value(draws);
  }

  StorageWeekResult result;
  double base_cost_total = 0.0;
  double with_cost_total = 0.0;
  double base_peak = 0.0;
  double with_peak = 0.0;
  double base_carbon = 0.0;
  double with_carbon = 0.0;

  for (std::size_t run = 0; run < slots_run.size(); ++run) {
    const int t = slots_run[run];
    const auto slot = static_cast<std::size_t>(t);
    const auto& report = reports[run];

    StorageSlotResult slot_result;
    slot_result.slot = t;

    for (std::size_t j = 0; j < n; ++j) {
      const double eff = effective_price(scenario, slot, j, tax);
      const double lmp = scenario.prices()(slot, j);
      const double carbon_rate = scenario.carbon_rates()(slot, j);
      const double nu = std::max(0.0, report.solution.nu[j]);
      const double mu = std::max(0.0, report.solution.mu[j]);

      slot_result.grid_cost_base += lmp * nu + p0 * mu;
      slot_result.carbon_tons_base += nu * carbon_rate / 1000.0;
      slot_result.peak_grid_mw_base =
          std::max(slot_result.peak_grid_mw_base, nu);

      double grid_draw = nu;
      double fuel_cell = mu;
      auto& battery = batteries[j];

      // What is a discharged MWh worth right now? The priciest marginal
      // source currently running.
      const double value_now = discharge_value(grid_draw, fuel_cell, eff, p0);
      if (value_now >= discharge_above[j] && (grid_draw + fuel_cell) > 0.0) {
        double delivered = battery.discharge(grid_draw + fuel_cell);
        slot_result.discharged_mwh += delivered;
        // Displace the more expensive source first.
        if (eff >= p0) {
          const double from_grid = std::min(delivered, grid_draw);
          grid_draw -= from_grid;
          delivered -= from_grid;
          fuel_cell -= std::min(delivered, fuel_cell);
        } else {
          const double from_fc = std::min(delivered, fuel_cell);
          fuel_cell -= from_fc;
          delivered -= from_fc;
          grid_draw -= std::min(delivered, grid_draw);
        }
      } else if (std::min(eff, p0) <= charge_below[j]) {
        // Charge from the cheaper of grid and fuel cells (biogas digesters
        // keep producing off-peak; storing their output is legitimate),
        // but never push the site's grid draw beyond its no-storage peak —
        // charging must not create the peak it exists to shave.
        double charge_mw = battery.available_charge_mw();
        if (eff <= p0)
          charge_mw = std::min(charge_mw,
                               std::max(0.0, charge_headroom[j] - grid_draw));
        const double accepted = charge_mw;
        battery.charge_from_grid(accepted);
        slot_result.charged_grid_mwh += accepted;
        if (eff <= p0)
          grid_draw += accepted;
        else
          fuel_cell += accepted;
      }

      slot_result.grid_cost_with += lmp * grid_draw + p0 * fuel_cell;
      slot_result.carbon_tons_with += grid_draw * carbon_rate / 1000.0;
      slot_result.peak_grid_mw_with =
          std::max(slot_result.peak_grid_mw_with, grid_draw);
    }

    base_cost_total += slot_result.grid_cost_base;
    with_cost_total += slot_result.grid_cost_with;
    base_carbon += slot_result.carbon_tons_base;
    with_carbon += slot_result.carbon_tons_with;
    base_peak = std::max(base_peak, slot_result.peak_grid_mw_base);
    with_peak = std::max(with_peak, slot_result.peak_grid_mw_with);
    result.slots.push_back(slot_result);
  }

  result.total_saving = base_cost_total - with_cost_total;
  result.saving_pct =
      base_cost_total > 0.0 ? 100.0 * result.total_saving / base_cost_total
                            : 0.0;
  result.peak_reduction_pct =
      base_peak > 0.0 ? 100.0 * (base_peak - with_peak) / base_peak : 0.0;
  result.carbon_delta_tons = with_carbon - base_carbon;
  return result;
}

StorageWeekResult run_storage_week_optimal(
    const traces::Scenario& scenario, const OptimalStorageOptions& options,
    const SimulatorOptions& sim_options) {
  UFC_EXPECTS(options.soc_levels >= 2);
  const auto& battery = options.battery;
  Battery validator(battery);  // validates the spec
  (void)validator;

  const std::size_t n = scenario.num_datacenters();
  const double tax = scenario.config().carbon_tax;
  const double p0 = scenario.config().fuel_cell_price;
  const double eta = battery.round_trip_efficiency;

  std::vector<int> slots_run;
  const std::vector<admm::AdmgReport> reports =
      solve_all_slots(scenario, admm::Strategy::Hybrid, sim_options,
                      &slots_run);
  const std::size_t horizon = slots_run.size();

  StorageWeekResult result;
  result.slots.resize(horizon);
  for (std::size_t run = 0; run < horizon; ++run)
    result.slots[run].slot = slots_run[run];

  double base_cost_total = 0.0, with_cost_total = 0.0;
  double base_carbon = 0.0, with_carbon = 0.0;
  double base_peak = 0.0, with_peak = 0.0;

  // Keep the SoC step fine enough (<= 0.1 MWh) that small charge actions
  // can always fit inside the grid-peak headroom; otherwise large batteries
  // would be artificially unable to trickle-charge. Capped to bound DP cost.
  const std::size_t levels = std::clamp<std::size_t>(
      std::max<std::size_t>(static_cast<std::size_t>(options.soc_levels),
                            static_cast<std::size_t>(
                                std::ceil(battery.capacity_mwh / 0.1))),
      2, 800);
  const double delta = battery.capacity_mwh / static_cast<double>(levels);
  // Max SoC steps movable per hour (charge measured after losses).
  const std::size_t max_up =
      delta > 0.0 ? static_cast<std::size_t>(battery.max_charge_mw * eta / delta)
                  : 0;
  const std::size_t max_down =
      delta > 0.0 ? static_cast<std::size_t>(battery.max_discharge_mw / delta)
                  : 0;

  for (std::size_t j = 0; j < n; ++j) {
    // Per-slot site data.
    std::vector<double> eff(horizon), lmp(horizon), carbon(horizon),
        nu(horizon), mu(horizon), fc_room(horizon);
    double grid_peak = 0.0;
    for (std::size_t run = 0; run < horizon; ++run) {
      const auto slot = static_cast<std::size_t>(slots_run[run]);
      eff[run] = effective_price(scenario, slot, j, tax);
      lmp[run] = scenario.prices()(slot, j);
      carbon[run] = scenario.carbon_rates()(slot, j);
      nu[run] = std::max(0.0, reports[run].solution.nu[j]);
      mu[run] = std::max(0.0, reports[run].solution.mu[j]);
      const auto problem = scenario.problem_at(slots_run[run]);
      fc_room[run] =
          std::max(0.0, problem.datacenters[j].fuel_cell_capacity_mw - mu[run]);
      grid_peak = std::max(grid_peak, nu[run]);
    }

    // Per-slot action economics.
    // Charging k SoC steps draws k*delta/eta MWh from the cheaper source,
    // respecting the peak guard (grid) / fuel-cell capacity headroom.
    auto charge_cost = [&](std::size_t run, std::size_t k) {
      const double terminals = static_cast<double>(k) * delta / eta;
      if (terminals > battery.max_charge_mw + 1e-12) return 1e18;
      const bool grid_cheaper = eff[run] <= p0;
      if (grid_cheaper) {
        if (terminals > std::max(0.0, grid_peak - nu[run]) + 1e-12) return 1e18;
        return eff[run] * terminals;
      }
      if (terminals > fc_room[run] + 1e-12) return 1e18;
      return p0 * terminals;
    };
    auto discharge_gain = [&](std::size_t run, std::size_t k) {
      const double delivered = static_cast<double>(k) * delta;
      if (delivered > battery.max_discharge_mw + 1e-12) return -1e18;
      if (delivered > nu[run] + mu[run] + 1e-12) return -1e18;
      return displacement_gain(delivered, nu[run], mu[run], eff[run], p0);
    };

    // Backward DP: value[s] = best profit from this slot onward at SoC s.
    std::vector<double> value(levels + 1, 0.0);
    // best_action[run][s]: signed SoC steps (+charge, -discharge).
    std::vector<std::vector<int>> best_action(
        horizon, std::vector<int>(levels + 1, 0));
    for (std::size_t back = 0; back < horizon; ++back) {
      const std::size_t run = horizon - 1 - back;
      std::vector<double> next = value;
      for (std::size_t s = 0; s <= levels; ++s) {
        double best = next[s];  // idle
        int action = 0;
        for (std::size_t k = 1; k <= max_up && s + k <= levels; ++k) {
          const double candidate = next[s + k] - charge_cost(run, k);
          if (candidate > best) {
            best = candidate;
            action = static_cast<int>(k);
          }
        }
        for (std::size_t k = 1; k <= max_down && k <= s; ++k) {
          const double candidate = next[s - k] + discharge_gain(run, k);
          if (candidate > best) {
            best = candidate;
            action = -static_cast<int>(k);
          }
        }
        value[s] = best;
        best_action[run][s] = action;
      }
    }

    // Forward pass: execute the schedule and account costs.
    std::size_t s = 0;
    for (std::size_t run = 0; run < horizon; ++run) {
      auto& slot_result = result.slots[run];
      slot_result.grid_cost_base += lmp[run] * nu[run] + p0 * mu[run];
      slot_result.carbon_tons_base += nu[run] * carbon[run] / 1000.0;
      slot_result.peak_grid_mw_base =
          std::max(slot_result.peak_grid_mw_base, nu[run]);

      double grid_draw = nu[run];
      double fuel_cell = mu[run];
      const int action = best_action[run][s];
      if (action > 0) {
        const double terminals = static_cast<double>(action) * delta / eta;
        if (eff[run] <= p0)
          grid_draw += terminals;
        else
          fuel_cell += terminals;
        slot_result.charged_grid_mwh += terminals;
        s += static_cast<std::size_t>(action);
      } else if (action < 0) {
        double delivered = static_cast<double>(-action) * delta;
        slot_result.discharged_mwh += delivered;
        if (eff[run] >= p0) {
          const double from_grid = std::min(delivered, grid_draw);
          grid_draw -= from_grid;
          delivered -= from_grid;
          fuel_cell -= std::min(delivered, fuel_cell);
        } else {
          const double from_fc = std::min(delivered, fuel_cell);
          fuel_cell -= from_fc;
          delivered -= from_fc;
          grid_draw -= std::min(delivered, grid_draw);
        }
        s -= static_cast<std::size_t>(-action);
      }

      slot_result.grid_cost_with += lmp[run] * grid_draw + p0 * fuel_cell;
      slot_result.carbon_tons_with += grid_draw * carbon[run] / 1000.0;
      slot_result.peak_grid_mw_with =
          std::max(slot_result.peak_grid_mw_with, grid_draw);
    }
  }

  for (const auto& slot_result : result.slots) {
    base_cost_total += slot_result.grid_cost_base;
    with_cost_total += slot_result.grid_cost_with;
    base_carbon += slot_result.carbon_tons_base;
    with_carbon += slot_result.carbon_tons_with;
    base_peak = std::max(base_peak, slot_result.peak_grid_mw_base);
    with_peak = std::max(with_peak, slot_result.peak_grid_mw_with);
  }
  result.total_saving = base_cost_total - with_cost_total;
  result.saving_pct =
      base_cost_total > 0.0 ? 100.0 * result.total_saving / base_cost_total
                            : 0.0;
  result.peak_reduction_pct =
      base_peak > 0.0 ? 100.0 * (base_peak - with_peak) / base_peak : 0.0;
  result.carbon_delta_tons = with_carbon - base_carbon;
  return result;
}

}  // namespace ufc::sim
