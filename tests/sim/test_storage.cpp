#include <gtest/gtest.h>

#include <algorithm>

#include "sim/storage.hpp"
#include "util/contract.hpp"

namespace ufc::sim {
namespace {

traces::Scenario storage_scenario() {
  traces::ScenarioConfig config;
  config.hours = 72;
  return traces::Scenario::generate(config);
}

StoragePolicyOptions sized_policy() {
  StoragePolicyOptions policy;
  policy.battery.capacity_mwh = 8.0;
  policy.battery.max_charge_mw = 2.0;
  policy.battery.max_discharge_mw = 2.0;
  policy.battery.round_trip_efficiency = 0.85;
  return policy;
}

SimulatorOptions fast_options() {
  SimulatorOptions options;
  options.stride = 1;
  return options;
}

TEST(StorageExtension, ArbitrageSavesGridCost) {
  const auto scenario = storage_scenario();
  const auto result =
      run_storage_week(scenario, sized_policy(), fast_options());
  EXPECT_GT(result.total_saving, 0.0);
  EXPECT_GT(result.saving_pct, 0.2);
  EXPECT_EQ(result.slots.size(), 72u);
}

TEST(StorageExtension, ShavesThePeakGridDraw) {
  const auto scenario = storage_scenario();
  const auto result =
      run_storage_week(scenario, sized_policy(), fast_options());
  EXPECT_GE(result.peak_reduction_pct, 0.0);
}

TEST(StorageExtension, ZeroBatteryIsNoOp) {
  const auto scenario = storage_scenario();
  StoragePolicyOptions empty;
  const auto result = run_storage_week(scenario, empty, fast_options());
  EXPECT_NEAR(result.total_saving, 0.0, 1e-9);
  EXPECT_NEAR(result.peak_reduction_pct, 0.0, 1e-9);
  for (const auto& slot : result.slots) {
    EXPECT_DOUBLE_EQ(slot.discharged_mwh, 0.0);
    EXPECT_DOUBLE_EQ(slot.charged_grid_mwh, 0.0);
  }
}

TEST(StorageExtension, EnergyBooksBalance) {
  // Total discharged energy cannot exceed efficiency * charged energy.
  const auto scenario = storage_scenario();
  const auto result =
      run_storage_week(scenario, sized_policy(), fast_options());
  double charged = 0.0, discharged = 0.0;
  for (const auto& slot : result.slots) {
    charged += slot.charged_grid_mwh;
    discharged += slot.discharged_mwh;
  }
  EXPECT_GT(charged, 0.0);
  EXPECT_LE(discharged,
            charged * sized_policy().battery.round_trip_efficiency + 1e-9);
}

TEST(StorageExtension, BiggerBatterySavesAtLeastAsMuch) {
  const auto scenario = storage_scenario();
  auto small = sized_policy();
  small.battery.capacity_mwh = 2.0;
  auto large = sized_policy();
  large.battery.capacity_mwh = 16.0;
  large.battery.max_charge_mw = 4.0;
  large.battery.max_discharge_mw = 4.0;
  const auto small_result =
      run_storage_week(scenario, small, fast_options());
  const auto large_result =
      run_storage_week(scenario, large, fast_options());
  EXPECT_GE(large_result.total_saving, small_result.total_saving - 1e-6);
}

TEST(OptimalStorage, BeatsOrMatchesThresholdPolicy) {
  const auto scenario = storage_scenario();
  const auto threshold =
      run_storage_week(scenario, sized_policy(), fast_options());
  OptimalStorageOptions optimal;
  optimal.battery = sized_policy().battery;
  const auto dp = run_storage_week_optimal(scenario, optimal, fast_options());
  // The DP is a clairvoyant upper bound for this action space.
  EXPECT_GE(dp.total_saving, threshold.total_saving - 1e-6);
  EXPECT_GT(dp.total_saving, 0.0);
}

TEST(OptimalStorage, SavingMonotoneInCapacity) {
  const auto scenario = storage_scenario();
  OptimalStorageOptions small;
  small.battery = sized_policy().battery;
  small.battery.capacity_mwh = 2.0;
  OptimalStorageOptions large;
  large.battery = sized_policy().battery;
  large.battery.capacity_mwh = 16.0;
  large.battery.max_charge_mw = 4.0;
  large.battery.max_discharge_mw = 4.0;
  const auto s = run_storage_week_optimal(scenario, small, fast_options());
  const auto l = run_storage_week_optimal(scenario, large, fast_options());
  // A strictly larger action space cannot save less (up to SoC
  // discretization granularity).
  EXPECT_GE(l.total_saving, s.total_saving - 5.0);
}

TEST(OptimalStorage, NeverRaisesTheGridPeak) {
  const auto scenario = storage_scenario();
  OptimalStorageOptions optimal;
  optimal.battery = sized_policy().battery;
  optimal.battery.capacity_mwh = 20.0;
  optimal.battery.max_charge_mw = 6.0;
  optimal.battery.max_discharge_mw = 6.0;
  const auto dp = run_storage_week_optimal(scenario, optimal, fast_options());
  EXPECT_GE(dp.peak_reduction_pct, -1e-9);
}

TEST(OptimalStorage, ZeroBatteryIsNoOp) {
  const auto scenario = storage_scenario();
  OptimalStorageOptions optimal;  // zero-capacity default battery
  const auto dp = run_storage_week_optimal(scenario, optimal, fast_options());
  EXPECT_NEAR(dp.total_saving, 0.0, 1e-9);
}

TEST(OptimalStorage, EnergyBooksBalance) {
  const auto scenario = storage_scenario();
  OptimalStorageOptions optimal;
  optimal.battery = sized_policy().battery;
  const auto dp = run_storage_week_optimal(scenario, optimal, fast_options());
  double charged = 0.0, discharged = 0.0;
  for (const auto& slot : dp.slots) {
    charged += slot.charged_grid_mwh;
    discharged += slot.discharged_mwh;
  }
  EXPECT_LE(discharged,
            charged * optimal.battery.round_trip_efficiency + 1e-9);
}

TEST(StorageExtension, RoundingResidueIsNotARunningSource) {
  // A fuel-cell dispatch of +-1e-14 MW beside 3 MW of grid draw is residue
  // of the solve: a discharge is worth the grid price, as with none at all.
  constexpr double kEff = 40.0;
  constexpr double kP0 = 80.0;
  EXPECT_EQ(discharge_value(3.0, 0.0, kEff, kP0), kEff);
  for (const double residue : {1e-14, -1e-14}) {
    EXPECT_EQ(discharge_value(3.0, residue, kEff, kP0), kEff) << residue;
    EXPECT_EQ(discharge_value(residue, 3.0, kEff, kP0), kP0) << residue;
  }
  // Real generation on both sides: the priciest source sets the value.
  EXPECT_EQ(discharge_value(3.0, 0.5, kEff, kP0), std::max(kEff, kP0));
  EXPECT_EQ(discharge_value(3.0, 0.5, 95.0, kP0), 95.0);
  EXPECT_EQ(discharge_value(0.0, 0.0, kEff, kP0), 0.0);
}

TEST(StorageExtension, InvalidQuantilesThrow) {
  const auto scenario = storage_scenario();
  auto policy = sized_policy();
  policy.charge_quantile = 0.8;
  policy.discharge_quantile = 0.3;  // inverted
  EXPECT_THROW(run_storage_week(scenario, policy, fast_options()),
               ContractViolation);
}

}  // namespace
}  // namespace ufc::sim
