// End-to-end reproduction checks: the paper's headline qualitative claims
// must hold on the full one-week scenario (shape, not absolute numbers —
// see EXPERIMENTS.md for the quantitative comparison).
#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "traces/scenario.hpp"
#include "util/stats.hpp"

namespace ufc::sim {
namespace {

// One shared full-week run (the solve is the expensive part: about 0.35 s
// in a RelWithDebInfo build).
class PaperClaims : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    traces::ScenarioConfig config;
    scenario_ = new traces::Scenario(traces::Scenario::generate(config));
    SimulatorOptions options;  // paper-scale defaults
    comparison_ = new StrategyComparison(
        compare_strategies(*scenario_, options));
  }
  static void TearDownTestSuite() {
    delete comparison_;
    delete scenario_;
    comparison_ = nullptr;
    scenario_ = nullptr;
  }
  static traces::Scenario* scenario_;
  static StrategyComparison* comparison_;
};

traces::Scenario* PaperClaims::scenario_ = nullptr;
StrategyComparison* PaperClaims::comparison_ = nullptr;

TEST_F(PaperClaims, HybridNeverReducesUfcVersusGrid) {
  // §IV-B: "it never reduces the UFC".
  for (double improvement : comparison_->improvement_hg)
    EXPECT_GT(improvement, -1.0);
}

TEST_F(PaperClaims, HybridBringsLargePeakImprovements) {
  // §IV-B: improvements "up to 50% during electricity peak hours".
  EXPECT_GT(max_value(comparison_->improvement_hg), 25.0);
}

TEST_F(PaperClaims, FuelCellOnlySeverelyReducesUfcOffPeak) {
  // §IV-B: Fuel cell vs Grid "UFC reduction up to 150% during off-peak".
  EXPECT_LT(min_value(comparison_->improvement_fg), -60.0);
}

TEST_F(PaperClaims, HybridSubstantiallyBeatsFuelCellOnAverage) {
  // §IV-B: "more than 40% on average when compared with Fuel cell"
  // (we measure ~30-35% on synthetic traces; assert the strong direction).
  EXPECT_GT(comparison_->average_improvement_hf(), 20.0);
}

TEST_F(PaperClaims, LatencyOrderingMatchesFigure5) {
  // Fig. 5: FuelCell lowest (14-16 ms), Hybrid close, Grid highest (to 23 ms).
  const double fc = comparison_->fuel_cell.average_latency_ms();
  const double hybrid = comparison_->hybrid.average_latency_ms();
  const double grid = comparison_->grid.average_latency_ms();
  EXPECT_LT(fc, hybrid);
  EXPECT_LT(hybrid, grid);
  EXPECT_GT(fc, 10.0);
  EXPECT_LT(fc, 17.0);
  EXPECT_GT(max_value(comparison_->grid.latency_ms_series()), 19.0);
}

TEST_F(PaperClaims, FuelCellStrategyHasHighestEnergyCost) {
  // Fig. 6: fuel-cell-only is the most expensive strategy.
  EXPECT_GT(comparison_->fuel_cell.total_energy_cost(),
            comparison_->grid.total_energy_cost());
  EXPECT_GT(comparison_->fuel_cell.total_energy_cost(),
            comparison_->hybrid.total_energy_cost());
  // Hybrid arbitrage reduces energy cost markedly versus fuel-cell-only.
  EXPECT_LT(comparison_->hybrid.total_energy_cost(),
            0.7 * comparison_->fuel_cell.total_energy_cost());
}

TEST_F(PaperClaims, HybridCarbonCloseToGridAndBelowEnergyCost) {
  // Fig. 7: hybrid emits nearly as much as grid; carbon cost << energy cost.
  const double hybrid_carbon = comparison_->hybrid.total_carbon_cost();
  const double grid_carbon = comparison_->grid.total_carbon_cost();
  EXPECT_GT(hybrid_carbon, 0.5 * grid_carbon);
  EXPECT_LE(hybrid_carbon, grid_carbon * 1.02);
  EXPECT_LT(hybrid_carbon, 0.5 * comparison_->hybrid.total_energy_cost());
  // Fuel-cell-only is carbon-free (up to the solver's power-balance
  // tolerance, which leaves a sub-percent residual grid draw).
  EXPECT_LT(comparison_->fuel_cell.total_carbon_tons(),
            0.01 * comparison_->grid.total_carbon_tons());
}

TEST_F(PaperClaims, FuelCellsPoorlyUtilizedAtCurrentPrices) {
  // Fig. 8: wild fluctuation, low average (paper: 16.2%).
  const auto utilization = comparison_->hybrid.utilization_series();
  const double avg = mean(utilization);
  EXPECT_GT(avg, 0.05);
  EXPECT_LT(avg, 0.35);
  // Fluctuates between (near) zero and substantial values.
  EXPECT_LT(min_value(utilization), 0.01);
  EXPECT_GT(max_value(utilization), 0.4);
}

TEST_F(PaperClaims, ConvergenceWithinPaperBallpark) {
  // Fig. 11: most runs converge within ~100 iterations.
  const auto iters = comparison_->hybrid.iteration_series();
  EXPECT_LT(percentile(iters, 80), 200.0);
  EXPECT_GT(min_value(iters), 5.0);
  for (const auto& slot : comparison_->hybrid.slots)
    EXPECT_TRUE(slot.converged) << "slot " << slot.slot;
}

}  // namespace
}  // namespace ufc::sim
