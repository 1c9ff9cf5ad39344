// Tick-stream ingestion: deterministic replay, bounded synthetic jitter and
// the hardened CSV trust boundary.
//
// The replay tests drive the stream the way the controller does — apply
// each sparse update to a running copy of the base problem — and check the
// result against the scenario's per-hour problems (outages included), so a
// dropped or duplicated delta cannot hide; the warm replay then feeds the
// same stream to a live solver and checks every hour against a cold solve.
// The CSV tests enumerate the malformed-telemetry cases the parser must
// reject: NaN/Inf and negative values, short and long rows, unknown kinds,
// out-of-range indices and decreasing ticks all throw rather than clamp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "admm/admg.hpp"
#include "admm/engine.hpp"
#include "admm/strategy.hpp"
#include "ctrl/stream.hpp"
#include "helpers.hpp"
#include "sim/session.hpp"
#include "sim/simulator.hpp"
#include "traces/scenario.hpp"
#include "util/contract.hpp"

namespace ufc::ctrl {
namespace {

using ::ufc::testing::make_tiny_problem;

/// Replays a sparse update onto a caller-unit problem copy — the reference
/// consumer the stream contract is checked against.
void apply_to(UfcProblem& problem, const admm::ProblemUpdate& update) {
  for (const auto& [i, value] : update.arrivals) problem.arrivals[i] = value;
  for (const auto& [j, value] : update.grid_prices)
    problem.datacenters[j].grid_price = value;
  for (const auto& [j, value] : update.carbon_rates)
    problem.datacenters[j].carbon_rate = value;
  for (const auto& [j, value] : update.fuel_cell_caps)
    problem.datacenters[j].fuel_cell_capacity_mw = value;
}

traces::ScenarioConfig small_config() {
  traces::ScenarioConfig config;
  config.hours = 8;
  config.front_ends = 4;
  return config;
}

TEST(TickStream, ScenarioReplayReconstructsEveryHour) {
  const auto scenario = traces::Scenario::generate(small_config());
  ScenarioTickSource source(scenario);
  EXPECT_DOUBLE_EQ(source.base_problem().arrivals[0],
                   scenario.problem_at(0).arrivals[0]);

  UfcProblem replayed = source.base_problem();
  for (int hour = 1; hour < scenario.hours(); ++hour) {
    const std::optional<admm::ProblemUpdate> update = source.next();
    ASSERT_TRUE(update.has_value()) << "hour " << hour;
    apply_to(replayed, *update);

    const UfcProblem expected = scenario.problem_at(hour);
    for (std::size_t i = 0; i < expected.num_front_ends(); ++i)
      EXPECT_DOUBLE_EQ(replayed.arrivals[i], expected.arrivals[i]);
    for (std::size_t j = 0; j < expected.num_datacenters(); ++j) {
      EXPECT_DOUBLE_EQ(replayed.datacenters[j].grid_price,
                       expected.datacenters[j].grid_price);
      EXPECT_DOUBLE_EQ(replayed.datacenters[j].carbon_rate,
                       expected.datacenters[j].carbon_rate);
      EXPECT_DOUBLE_EQ(replayed.datacenters[j].fuel_cell_capacity_mw,
                       expected.datacenters[j].fuel_cell_capacity_mw);
    }
  }
  EXPECT_FALSE(source.next().has_value());
  EXPECT_FALSE(source.next().has_value());  // Stays exhausted.
}

TEST(TickStream, ScenarioReplayCarriesOutageCapacityTransitions) {
  const auto scenario = traces::Scenario::generate(small_config());
  const std::vector<sim::FuelCellOutage> outages = {{0, 2, 5}};
  ScenarioTickSource source(scenario, outages);

  UfcProblem replayed = source.base_problem();
  // Hour 0 is outside the window: full capacity in the base problem.
  EXPECT_DOUBLE_EQ(replayed.datacenters[0].fuel_cell_capacity_mw,
                   scenario.problem_at(0).datacenters[0].fuel_cell_capacity_mw);

  for (int hour = 1; hour < scenario.hours(); ++hour) {
    const std::optional<admm::ProblemUpdate> update = source.next();
    ASSERT_TRUE(update.has_value());
    apply_to(replayed, *update);

    UfcProblem expected = scenario.problem_at(hour);
    sim::apply_outages(expected, outages, hour);
    EXPECT_DOUBLE_EQ(replayed.datacenters[0].fuel_cell_capacity_mw,
                     expected.datacenters[0].fuel_cell_capacity_mw)
        << "hour " << hour;
  }
}

TEST(TickStream, SyntheticStreamIsDeterministicInSeed) {
  SyntheticTickSource::Options options;
  options.seed = 7;
  options.ticks = 5;
  options.carbon_amplitude = 0.1;
  SyntheticTickSource a(make_tiny_problem(), options);
  SyntheticTickSource b(make_tiny_problem(), options);

  bool any_difference_from_other_seed = false;
  options.seed = 8;
  SyntheticTickSource c(make_tiny_problem(), options);
  for (int tick = 0; tick < options.ticks; ++tick) {
    const auto ua = a.next();
    const auto ub = b.next();
    const auto uc = c.next();
    ASSERT_TRUE(ua.has_value() && ub.has_value() && uc.has_value());
    ASSERT_EQ(ua->arrivals.size(), ub->arrivals.size());
    for (std::size_t k = 0; k < ua->arrivals.size(); ++k) {
      EXPECT_EQ(ua->arrivals[k], ub->arrivals[k]);
      if (ua->arrivals[k].second != uc->arrivals[k].second)
        any_difference_from_other_seed = true;
    }
    ASSERT_EQ(ua->grid_prices.size(), ub->grid_prices.size());
    for (std::size_t k = 0; k < ua->grid_prices.size(); ++k)
      EXPECT_EQ(ua->grid_prices[k], ub->grid_prices[k]);
    ASSERT_EQ(ua->carbon_rates.size(), ub->carbon_rates.size());
    for (std::size_t k = 0; k < ua->carbon_rates.size(); ++k)
      EXPECT_EQ(ua->carbon_rates[k], ub->carbon_rates[k]);
  }
  EXPECT_FALSE(a.next().has_value());
  EXPECT_TRUE(any_difference_from_other_seed);
}

TEST(TickStream, SyntheticJitterStaysWithinAmplitudeOfBase) {
  const UfcProblem base = make_tiny_problem();
  SyntheticTickSource::Options options;
  options.ticks = 32;
  options.workload_amplitude = 0.2;
  options.price_amplitude = 0.3;
  SyntheticTickSource source(base, options);

  while (const auto update = source.next()) {
    double total = 0.0;
    for (const auto& [i, value] : update->arrivals) {
      // Every tick jitters around the BASE, not the previous tick, so
      // excursions never compound.
      EXPECT_GE(value, base.arrivals[i] * (1.0 - options.workload_amplitude));
      EXPECT_LE(value, base.arrivals[i] * (1.0 + options.workload_amplitude));
      total += value;
    }
    EXPECT_LE(total, base.total_server_capacity());
    for (const auto& [j, value] : update->grid_prices) {
      const double price = base.datacenters[j].grid_price;
      EXPECT_GE(value, price * (1.0 - options.price_amplitude));
      EXPECT_LE(value, price * (1.0 + options.price_amplitude));
    }
    // Carbon amplitude is zero: the group must be omitted, not emitted flat.
    EXPECT_TRUE(update->carbon_rates.empty());
  }
}

TEST(TickStream, SyntheticConstructorRejectsInfeasibleConfigurations) {
  SyntheticTickSource::Options options;
  options.workload_amplitude = -0.1;
  EXPECT_THROW(SyntheticTickSource(make_tiny_problem(), options),
               ContractViolation);
  options.workload_amplitude = 1.0;  // Amplitudes live in [0, 1).
  EXPECT_THROW(SyntheticTickSource(make_tiny_problem(), options),
               ContractViolation);
  // Worst-case excursion overflows capacity: arrivals 1000 against 1800
  // servers tolerates at most +80%.
  options.workload_amplitude = 0.9;
  EXPECT_THROW(SyntheticTickSource(make_tiny_problem(), options),
               ContractViolation);
  options.workload_amplitude = 0.5;
  EXPECT_NO_THROW(SyntheticTickSource(make_tiny_problem(), options));
}

std::vector<admm::ProblemUpdate> parse(const std::string& text) {
  std::istringstream in(text);
  return read_tick_stream(in, /*front_ends=*/2, /*datacenters=*/2);
}

TEST(TickStream, CsvParsesSortedRowsAndFillsGapsWithEmptyTicks) {
  const auto updates = parse(
      "tick,kind,index,value\n"
      "0,arrival,0,512.5\n"
      "0,grid_price,1,47.25\n"
      "2,fuel_cell_cap,0,0.125\n"
      "2,carbon_rate,1,310\n"
      "\n");
  ASSERT_EQ(updates.size(), 3u);
  ASSERT_EQ(updates[0].arrivals.size(), 1u);
  EXPECT_EQ(updates[0].arrivals[0].first, 0u);
  EXPECT_DOUBLE_EQ(updates[0].arrivals[0].second, 512.5);
  ASSERT_EQ(updates[0].grid_prices.size(), 1u);
  EXPECT_DOUBLE_EQ(updates[0].grid_prices[0].second, 47.25);
  EXPECT_TRUE(updates[1].empty());  // The gap becomes an empty tick.
  ASSERT_EQ(updates[2].fuel_cell_caps.size(), 1u);
  EXPECT_DOUBLE_EQ(updates[2].fuel_cell_caps[0].second, 0.125);
  ASSERT_EQ(updates[2].carbon_rates.size(), 1u);
  EXPECT_DOUBLE_EQ(updates[2].carbon_rates[0].second, 310.0);
}

TEST(TickStream, CsvToleratesWindowsLineEndings) {
  const auto updates = parse(
      "tick,kind,index,value\r\n"
      "0,arrival,1,400\r\n");
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_DOUBLE_EQ(updates[0].arrivals[0].second, 400.0);
}

TEST(TickStream, CsvRejectsMalformedInput) {
  const std::string header = "tick,kind,index,value\n";
  // NaN and Inf parse cleanly through from_chars, so the explicit finiteness
  // gate is what rejects them.
  EXPECT_THROW(parse(header + "0,arrival,0,nan\n"), ContractViolation);
  EXPECT_THROW(parse(header + "0,arrival,0,inf\n"), ContractViolation);
  EXPECT_THROW(parse(header + "0,grid_price,0,-5\n"), ContractViolation);
  EXPECT_THROW(parse(header + "0,arrival,0\n"), ContractViolation);  // Short.
  EXPECT_THROW(parse(header + "0,arrival,0,1,extra\n"), ContractViolation);
  EXPECT_THROW(parse(header + "0,voltage,0,1\n"), ContractViolation);
  EXPECT_THROW(parse(header + "0,arrival,2,1\n"), ContractViolation);
  EXPECT_THROW(parse(header + "0,grid_price,2,1\n"), ContractViolation);
  EXPECT_THROW(parse(header + "0,arrival,-1,1\n"), ContractViolation);
  EXPECT_THROW(parse(header + "x,arrival,0,1\n"), ContractViolation);
  EXPECT_THROW(parse(header + "0,arrival,0,12abc\n"), ContractViolation);
  // Decreasing ticks: the stream contract is sorted input.
  EXPECT_THROW(parse(header + "3,arrival,0,1\n2,arrival,0,1\n"),
               ContractViolation);
  // Missing or wrong header.
  EXPECT_THROW(parse(""), ContractViolation);
  EXPECT_THROW(parse("time,kind,index,value\n"), ContractViolation);
}

TEST(TickStream, CsvFileHelperRejectsMissingFile) {
  EXPECT_THROW(
      read_tick_stream_file("/nonexistent/ufc_tick_stream.csv", 2, 2),
      ContractViolation);
}

TEST(TickStream, CsvUpdatesFeedApplyUpdateEndToEnd) {
  const auto updates = parse(
      "tick,kind,index,value\n"
      "0,arrival,0,700\n"
      "1,grid_price,0,55\n");
  admm::AdmgSolver solver(make_tiny_problem());
  for (const auto& update : updates) solver.apply_update(update);
  EXPECT_DOUBLE_EQ(solver.problem().datacenters[0].grid_price, 55.0);
  EXPECT_DOUBLE_EQ(solver.problem().arrivals[0] * solver.workload_scale(),
                   700.0);
}

// The receding-horizon replay of a scenario: one live solver carries the
// stream's updates and re-solves each hour from the previous hour's iterate.
// Every hour must land on the cold per-slot optimum (sim::SolveSession, as
// in the paper), and the week as a whole must pay for itself in iterations.
// The replayed solver keeps hour 0's workload normalization, which alone
// changes iteration counts, so the savings are also checked against the same
// replay with the iterate reset() before every re-solve.
TEST(TickStream, WarmReplayMatchesColdSlotsWithFewerIterations) {
  traces::ScenarioConfig config;
  config.hours = 24;
  const auto scenario = traces::Scenario::generate(config);
  sim::SimulatorOptions options;
  options.admg.tolerance = 3e-3;
  options.admg.max_iterations = 600;
  const std::vector<admm::AdmgReport> cold =
      sim::solve_all_slots(scenario, admm::Strategy::Hybrid, options);

  ScenarioTickSource source(scenario);
  admm::AdmgOptions replay_options = options.admg;
  replay_options.pinning = admm::pinning_for(admm::Strategy::Hybrid);
  admm::AdmgSolver solver(source.base_problem(), replay_options);
  admm::AdmgSolver restarted(source.base_problem(), replay_options);
  std::vector<admm::AdmgReport> warm{solver.solve()};
  int restarted_iterations = restarted.solve().iterations;
  while (const auto update = source.next()) {
    solver.apply_update(*update);
    restarted.apply_update(*update);
    warm.push_back(solver.solve_warm());
    restarted.reset();
    restarted_iterations += restarted.solve_warm().iterations;
  }

  ASSERT_EQ(warm.size(), cold.size());
  int warm_iterations = 0;
  int cold_iterations = 0;
  for (std::size_t hour = 0; hour < cold.size(); ++hour) {
    EXPECT_TRUE(warm[hour].converged) << "hour " << hour;
    EXPECT_NEAR(warm[hour].breakdown.ufc, cold[hour].breakdown.ufc,
                5e-3 * std::abs(cold[hour].breakdown.ufc))
        << "hour " << hour;
    warm_iterations += warm[hour].iterations;
    cold_iterations += cold[hour].iterations;
  }
  EXPECT_LT(warm_iterations, 0.8 * cold_iterations);
  EXPECT_LT(warm_iterations, 0.8 * restarted_iterations);
}

}  // namespace
}  // namespace ufc::ctrl
