#include "sim/simulator.hpp"

#include <algorithm>

#include "admm/options.hpp"
#include "sim/session.hpp"
#include "util/contract.hpp"
#include "util/stats.hpp"

namespace ufc::sim {

namespace {

template <typename Extract>
std::vector<double> series(const std::vector<SlotResult>& slots,
                           Extract&& extract) {
  std::vector<double> out;
  out.reserve(slots.size());
  for (const auto& s : slots) out.push_back(extract(s));
  return out;
}

}  // namespace

double WeekResult::total_energy_cost() const {
  double total = 0.0;
  for (const auto& s : slots) total += s.breakdown.energy_cost;
  return total;
}

double WeekResult::total_carbon_cost() const {
  double total = 0.0;
  for (const auto& s : slots) total += s.breakdown.carbon_cost;
  return total;
}

double WeekResult::total_carbon_tons() const {
  double total = 0.0;
  for (const auto& s : slots) total += s.breakdown.carbon_tons;
  return total;
}

double WeekResult::total_ufc() const {
  double total = 0.0;
  for (const auto& s : slots) total += s.breakdown.ufc;
  return total;
}

double WeekResult::average_latency_ms() const {
  UFC_EXPECTS(!slots.empty());
  const auto xs = latency_ms_series();
  return mean(xs);
}

double WeekResult::average_utilization() const {
  UFC_EXPECTS(!slots.empty());
  const auto xs = utilization_series();
  return mean(xs);
}

std::vector<double> WeekResult::energy_cost_series() const {
  return series(slots,
                [](const SlotResult& s) { return s.breakdown.energy_cost; });
}

std::vector<double> WeekResult::latency_ms_series() const {
  return series(slots,
                [](const SlotResult& s) { return s.breakdown.avg_latency_ms; });
}

std::vector<double> WeekResult::utilization_series() const {
  return series(slots,
                [](const SlotResult& s) { return s.breakdown.utilization; });
}

std::vector<double> WeekResult::iteration_series() const {
  return series(slots, [](const SlotResult& s) {
    return static_cast<double>(s.iterations);
  });
}

SimulatorOptions simulator_options_from(const Config& config) {
  SimulatorOptions options;
  options.admg = admm::options_from_config(config, options.admg);
  options.stride = config.get_int("simulate.stride", options.stride);
  return options;
}

WeekResult run_strategy_week(const traces::Scenario& scenario,
                             admm::Strategy strategy,
                             const SimulatorOptions& options) {
  WeekResult result;
  result.strategy = strategy;

  std::vector<int> slots_run;
  const auto reports = solve_all_slots(scenario, strategy, options, &slots_run);
  for (std::size_t k = 0; k < reports.size(); ++k) {
    SlotResult slot;
    slot.slot = slots_run[k];
    slot.breakdown = reports[k].breakdown;
    slot.iterations = reports[k].iterations;
    slot.converged = reports[k].converged;
    result.slots.push_back(std::move(slot));
  }
  return result;
}

StrategyComparison compare_strategies(const traces::Scenario& scenario,
                                      const SimulatorOptions& options) {
  StrategyComparison cmp;
  cmp.grid = run_strategy_week(scenario, admm::Strategy::Grid, options);
  cmp.fuel_cell =
      run_strategy_week(scenario, admm::Strategy::FuelCell, options);
  cmp.hybrid = run_strategy_week(scenario, admm::Strategy::Hybrid, options);

  const std::size_t slots = cmp.grid.slots.size();
  UFC_EXPECTS(cmp.fuel_cell.slots.size() == slots &&
              cmp.hybrid.slots.size() == slots);
  for (std::size_t s = 0; s < slots; ++s) {
    const double g = cmp.grid.slots[s].breakdown.ufc;
    const double f = cmp.fuel_cell.slots[s].breakdown.ufc;
    const double h = cmp.hybrid.slots[s].breakdown.ufc;
    cmp.improvement_hg.push_back(improvement_percent(h, g));
    cmp.improvement_hf.push_back(improvement_percent(h, f));
    cmp.improvement_fg.push_back(improvement_percent(f, g));
  }
  return cmp;
}

double StrategyComparison::average_improvement_hg() const {
  return mean(improvement_hg);
}

double StrategyComparison::average_improvement_hf() const {
  return mean(improvement_hf);
}

double StrategyComparison::average_improvement_fg() const {
  return mean(improvement_fg);
}

SingleSiteCosts single_site_strategy_costs(std::span<const double> demand_mw,
                                           std::span<const double> price,
                                           double fuel_cell_price) {
  UFC_EXPECTS(demand_mw.size() == price.size());
  UFC_EXPECTS(fuel_cell_price >= 0.0);
  SingleSiteCosts costs;
  for (std::size_t t = 0; t < demand_mw.size(); ++t) {
    UFC_EXPECTS(demand_mw[t] >= 0.0);
    costs.grid += price[t] * demand_mw[t];
    costs.fuel_cell += fuel_cell_price * demand_mw[t];
    costs.hybrid += std::min(price[t], fuel_cell_price) * demand_mw[t];
  }
  return costs;
}

}  // namespace ufc::sim
