#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "util/contract.hpp"
#include "util/stats.hpp"

namespace ufc::sim {
namespace {

traces::Scenario small_scenario() {
  traces::ScenarioConfig config;
  config.hours = 24;
  return traces::Scenario::generate(config);
}

SimulatorOptions fast_options() {
  SimulatorOptions options;
  options.admg.tolerance = 3e-3;
  options.admg.max_iterations = 600;
  return options;
}

TEST(SingleSiteCosts, HandComputedExample) {
  const std::vector<double> demand = {1.0, 2.0, 1.0};
  const std::vector<double> price = {50.0, 100.0, 90.0};
  const auto costs = single_site_strategy_costs(demand, price, 80.0);
  EXPECT_DOUBLE_EQ(costs.grid, 50.0 + 200.0 + 90.0);
  EXPECT_DOUBLE_EQ(costs.fuel_cell, 80.0 * 4.0);
  EXPECT_DOUBLE_EQ(costs.hybrid, 50.0 + 160.0 + 80.0);
}

TEST(SingleSiteCosts, HybridNeverWorseThanEither) {
  const std::vector<double> demand = {1.5, 0.5, 2.5, 3.0};
  const std::vector<double> price = {120.0, 20.0, 79.0, 81.0};
  const auto costs = single_site_strategy_costs(demand, price, 80.0);
  EXPECT_LE(costs.hybrid, costs.grid);
  EXPECT_LE(costs.hybrid, costs.fuel_cell);
}

TEST(SingleSiteCosts, MismatchedSizesThrow) {
  const std::vector<double> demand = {1.0};
  const std::vector<double> price = {1.0, 2.0};
  EXPECT_THROW(single_site_strategy_costs(demand, price, 80.0),
               ContractViolation);
}

TEST(RunStrategyWeek, ProducesOneResultPerSlot) {
  const auto scenario = small_scenario();
  const auto week =
      run_strategy_week(scenario, admm::Strategy::Hybrid, fast_options());
  EXPECT_EQ(week.slots.size(), 24u);
  for (std::size_t t = 0; t < week.slots.size(); ++t) {
    EXPECT_EQ(week.slots[t].slot, static_cast<int>(t));
    EXPECT_GT(week.slots[t].iterations, 0);
    EXPECT_TRUE(week.slots[t].converged);
  }
}

TEST(RunStrategyWeek, StrideSubsamples) {
  const auto scenario = small_scenario();
  auto options = fast_options();
  options.stride = 6;
  const auto week =
      run_strategy_week(scenario, admm::Strategy::Grid, options);
  EXPECT_EQ(week.slots.size(), 4u);
  EXPECT_EQ(week.slots[1].slot, 6);
}

TEST(WeekResult, AggregatesMatchSeries) {
  const auto scenario = small_scenario();
  const auto week =
      run_strategy_week(scenario, admm::Strategy::Grid, fast_options());
  EXPECT_NEAR(week.total_energy_cost(), sum(week.energy_cost_series()), 1e-9);
  double carbon_cost = 0.0;
  double ufc = 0.0;
  for (const auto& slot : week.slots) {
    carbon_cost += slot.breakdown.carbon_cost;
    ufc += slot.breakdown.ufc;
  }
  EXPECT_NEAR(week.total_carbon_cost(), carbon_cost, 1e-9);
  EXPECT_NEAR(week.total_ufc(), ufc, 1e-9);
  EXPECT_NEAR(week.average_latency_ms(), mean(week.latency_ms_series()),
              1e-12);
  EXPECT_NEAR(week.average_utilization(), mean(week.utilization_series()),
              1e-12);
  EXPECT_EQ(week.iteration_series().size(), week.slots.size());
}

TEST(CompareStrategies, ImprovementIdentities) {
  const auto scenario = small_scenario();
  const auto cmp = compare_strategies(scenario, fast_options());
  ASSERT_EQ(cmp.improvement_hg.size(), 24u);
  for (std::size_t t = 0; t < 24; ++t) {
    const double g = cmp.grid.slots[t].breakdown.ufc;
    const double h = cmp.hybrid.slots[t].breakdown.ufc;
    EXPECT_NEAR(cmp.improvement_hg[t], 100.0 * (h - g) / std::abs(g), 1e-9);
  }
  EXPECT_NEAR(cmp.average_improvement_hg(), mean(cmp.improvement_hg), 1e-12);
}

TEST(CompareStrategies, PaperDominanceInvariants) {
  const auto scenario = small_scenario();
  const auto cmp = compare_strategies(scenario, fast_options());
  for (std::size_t t = 0; t < cmp.improvement_hg.size(); ++t) {
    // "it never reduces the UFC": Hybrid >= Grid (within solver tolerance).
    EXPECT_GT(cmp.improvement_hg[t], -1.0) << "slot " << t;
    EXPECT_GT(cmp.improvement_hf[t], -1.0) << "slot " << t;
  }
  // Grid uses no fuel cells; FuelCell uses only fuel cells.
  EXPECT_NEAR(cmp.grid.average_utilization(), 0.0, 1e-9);
  EXPECT_NEAR(cmp.fuel_cell.average_utilization(), 1.0, 1e-2);
}

TEST(SimulatorOptionsFromIni, AppliesOverridesAndDefaults) {
  const auto config = Config::parse(
      "[solver]\n"
      "rho = 5\n"
      "tolerance = 1e-4\n"
      "gaussian_back_substitution = false\n"
      "[simulate]\n"
      "stride = 4\n");
  const auto options = simulator_options_from(config);
  EXPECT_DOUBLE_EQ(options.admg.rho, 5.0);
  EXPECT_DOUBLE_EQ(options.admg.tolerance, 1e-4);
  EXPECT_FALSE(options.admg.gaussian_back_substitution);
  EXPECT_EQ(options.stride, 4);
  // Defaults kept for untouched keys.
  const SimulatorOptions defaults;
  EXPECT_EQ(options.admg.max_iterations, defaults.admg.max_iterations);
  EXPECT_DOUBLE_EQ(options.admg.epsilon, defaults.admg.epsilon);
}

TEST(FuelCellOutage, CoversIsHalfOpen) {
  const FuelCellOutage outage{.datacenter = 0, .first_hour = 3,
                              .last_hour = 6};
  EXPECT_FALSE(outage.covers(2));
  EXPECT_TRUE(outage.covers(3));
  EXPECT_TRUE(outage.covers(5));
  EXPECT_FALSE(outage.covers(6));
}

TEST(FuelCellOutageWeek, SlotsOutsideTheWindowAreUntouched) {
  const auto scenario = small_scenario();
  const auto base =
      run_strategy_week(scenario, admm::Strategy::Hybrid, fast_options());

  auto options = fast_options();
  options.outages.push_back({.datacenter = 0, .first_hour = 8,
                             .last_hour = 16});
  const auto degraded =
      run_strategy_week(scenario, admm::Strategy::Hybrid, options);

  ASSERT_EQ(degraded.slots.size(), base.slots.size());
  for (std::size_t t = 0; t < base.slots.size(); ++t) {
    const int hour = base.slots[t].slot;
    if (hour >= 8 && hour < 16) {
      // Losing generation capacity can only shrink the feasible set: the
      // UFC must not improve (solver-tolerance slack).
      EXPECT_LE(degraded.slots[t].breakdown.ufc,
                base.slots[t].breakdown.ufc +
                    3e-3 * std::abs(base.slots[t].breakdown.ufc))
          << "hour " << hour;
    } else {
      // The per-slot problems are identical outside the window and each
      // slot cold-starts: bitwise-equal outcomes.
      EXPECT_EQ(degraded.slots[t].breakdown.ufc, base.slots[t].breakdown.ufc)
          << "hour " << hour;
      EXPECT_EQ(degraded.slots[t].iterations, base.slots[t].iterations);
    }
  }
  EXPECT_LE(degraded.total_ufc(), base.total_ufc());
}

TEST(FuelCellOutageWeek, TotalOutageReducesHybridToGridStrategy) {
  const auto scenario = small_scenario();
  const auto n = scenario.problem_at(0).num_datacenters();

  auto options = fast_options();
  for (std::size_t j = 0; j < n; ++j)
    options.outages.push_back({.datacenter = j, .first_hour = 0,
                               .last_hour = 24});
  const auto blacked_out =
      run_strategy_week(scenario, admm::Strategy::Hybrid, options);
  const auto grid =
      run_strategy_week(scenario, admm::Strategy::Grid, fast_options());

  // With every fuel cell down, Hybrid's extra degree of freedom is pinned
  // to zero: slot by slot it must land on the Grid strategy's objective.
  ASSERT_EQ(blacked_out.slots.size(), grid.slots.size());
  for (std::size_t t = 0; t < grid.slots.size(); ++t)
    EXPECT_NEAR(blacked_out.slots[t].breakdown.ufc,
                grid.slots[t].breakdown.ufc,
                0.01 * std::abs(grid.slots[t].breakdown.ufc))
        << "slot " << t;
  EXPECT_NEAR(blacked_out.average_utilization(), 0.0, 1e-4);
}

TEST(FuelCellOutageWeek, InvalidOutagesThrow) {
  const auto scenario = small_scenario();
  {
    SimulatorOptions options = fast_options();
    options.outages.push_back({.datacenter = 1000, .first_hour = 0,
                               .last_hour = 4});
    EXPECT_THROW(
        run_strategy_week(scenario, admm::Strategy::Hybrid, options),
        ContractViolation);
  }
  {
    SimulatorOptions options = fast_options();
    options.outages.push_back({.datacenter = 0, .first_hour = 5,
                               .last_hour = 2});
    EXPECT_THROW(
        run_strategy_week(scenario, admm::Strategy::Hybrid, options),
        ContractViolation);
  }
}

TEST(RunStrategyWeek, InvalidStrideThrows) {
  const auto scenario = small_scenario();
  SimulatorOptions options = fast_options();
  options.stride = 0;
  EXPECT_THROW(run_strategy_week(scenario, admm::Strategy::Grid, options),
               ContractViolation);
}

}  // namespace
}  // namespace ufc::sim
