#include "sim/reproduce.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string_view>
#include <tuple>
#include <utility>

#include "admm/admg.hpp"
#include "admm/async.hpp"
#include "admm/rightsizing.hpp"
#include "admm/strategy.hpp"
#include "model/breakdown.hpp"
#include "model/emission.hpp"
#include "model/queueing.hpp"
#include "net/runtime.hpp"
#include "sim/batch.hpp"
#include "sim/forecast_study.hpp"
#include "sim/simulator.hpp"
#include "sim/storage.hpp"
#include "sim/sweep.hpp"
#include "traces/scenario.hpp"
#include "util/contract.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace ufc::sim {

CsvSeries::CsvSeries(std::string file_name, std::vector<std::string> columns)
    : file(std::move(file_name)), header(std::move(columns)) {
  UFC_EXPECTS(!header.empty());
}

void CsvSeries::row(const std::vector<double>& cells) {
  std::vector<std::string> formatted;
  for (double value : cells) formatted.push_back(csv_number(value));
  row_strings(std::move(formatted));
}

void CsvSeries::row(std::string label, const std::vector<double>& cells) {
  std::vector<std::string> formatted{std::move(label)};
  for (double value : cells) formatted.push_back(csv_number(value));
  row_strings(std::move(formatted));
}

void CsvSeries::row_strings(std::vector<std::string> cells) {
  UFC_EXPECTS(cells.size() == header.size());
  rows.push_back(std::move(cells));
}

namespace {

/// The paper's evaluation scenario (§IV-A defaults, seed 42).
traces::Scenario paper_scenario() {
  return traces::Scenario::generate(traces::ScenarioConfig{});
}

/// The paper-scale solver settings every section starts from.
admm::AdmgOptions paper_admg() { return SimulatorOptions{}.admg; }

SectionOutput one_block(std::string name, std::string text,
                        std::vector<CsvSeries> series) {
  return {{{std::move(name), std::move(text)}}, std::move(series)};
}

/// A row of mean / min / max / p95 of `series`, to one decimal.
void add_distribution_row(TablePrinter& table, const std::string& label,
                          const std::vector<double>& series) {
  table.add_row(label,
                {mean(series), min_value(series), max_value(series),
                 percentile(series, 95)},
                1);
}

// ---------------------------------------------------------------------------
// Table I and Fig. 1: the single-site demand profile and its two price
// traces.

SectionOutput render_single_site() {
  SectionOutput out;
  const auto data = traces::generate_single_site_data(42);
  const double p0 = 80.0;

  const auto dallas =
      single_site_strategy_costs(data.demand_mw, data.dallas_price, p0);
  const auto san_jose =
      single_site_strategy_costs(data.demand_mw, data.san_jose_price, p0);
  TablePrinter costs({"Site", "Grid", "Fuel Cell", "Hybrid"});
  CsvSeries table1_csv("ufc_table1.csv",
                       {"site", "grid", "fuel_cell", "hybrid"});
  for (const auto& [site, cost] :
       {std::pair{"Dallas", dallas}, std::pair{"San Jose", san_jose}}) {
    costs.add_row(site, {cost.grid, cost.fuel_cell, cost.hybrid}, 0);
    table1_csv.row(site, {cost.grid, cost.fuel_cell, cost.hybrid});
  }
  std::ostringstream table1;
  table1 << costs.to_string() << "\nHybrid saves "
         << fixed(100.0 * (1.0 - dallas.hybrid / dallas.grid), 1)
         << "% vs Grid at Dallas and "
         << fixed(100.0 * (1.0 - san_jose.hybrid / san_jose.grid), 1)
         << "% at San Jose.\n";
  out.blocks.push_back({"table1", table1.str()});
  out.series.push_back(std::move(table1_csv));

  TablePrinter traces({"Series", "mean", "min", "max"});
  for (const auto& [label, series] :
       {std::pair{"Demand (MW)", &data.demand_mw},
        std::pair{"Dallas price ($/MWh)", &data.dallas_price},
        std::pair{"San Jose price ($/MWh)", &data.san_jose_price}})
    traces.add_row(label,
                   {mean(*series), min_value(*series), max_value(*series)});
  CsvSeries fig1_csv("ufc_fig1.csv",
                     {"hour", "demand_mw", "dallas_price", "san_jose_price"});
  int dallas_below = 0, sj_below = 0;
  for (std::size_t t = 0; t < data.demand_mw.size(); ++t) {
    dallas_below += data.dallas_price[t] < p0 ? 1 : 0;
    sj_below += data.san_jose_price[t] < p0 ? 1 : 0;
    fig1_csv.row({static_cast<double>(t), data.demand_mw[t],
                  data.dallas_price[t], data.san_jose_price[t]});
  }
  std::ostringstream fig1;
  fig1 << traces.to_string()
       << "\nHours with grid cheaper than fuel cells (p0 = 80 $/MWh): "
       << "Dallas " << dallas_below << "/168, San Jose " << sj_below
       << "/168\n";
  out.blocks.push_back({"fig1", fig1.str()});
  out.series.push_back(std::move(fig1_csv));
  return out;
}

// ---------------------------------------------------------------------------
// Fig. 2: the message-passing runtime at paper scale, accounted per link
// class and iteration.

SectionOutput render_protocol() {
  const auto problem = paper_scenario().problem_at(64);
  const std::size_t m = problem.num_front_ends();
  const std::size_t n = problem.num_datacenters();
  net::DistributedOptions options;
  options.admg = paper_admg();
  net::DistributedAdmgRuntime runtime(problem, options);
  const auto report = runtime.run();
  const auto rounds = static_cast<double>(report.iterations);

  net::LinkStats fe_to_dc, dc_to_fe, to_coordinator;
  const auto add = [&](net::LinkStats& total, net::NodeId from,
                       net::NodeId to) {
    const auto link = runtime.bus().link(from, to);
    total.messages += link.messages;
    total.bytes += link.bytes;
  };
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      add(fe_to_dc, net::front_end_id(i), net::datacenter_id(j));
      add(dc_to_fe, net::datacenter_id(j), net::front_end_id(i));
    }
    add(to_coordinator, net::front_end_id(i), net::kCoordinatorId);
  }
  for (std::size_t j = 0; j < n; ++j)
    add(to_coordinator, net::datacenter_id(j), net::kCoordinatorId);

  TablePrinter table({"link class (procedure)", "msgs/iter", "bytes/iter",
                      "total KiB"});
  CsvSeries csv("ufc_fig2.csv", {"link_class", "messages", "bytes"});
  for (const auto& [name, key, stats] :
       {std::tuple{"FE->DC proposals (1: lambda~, varphi)", "fe_to_dc",
                   fe_to_dc},
        std::tuple{"DC->FE assignments (4: a~)", "dc_to_fe", dc_to_fe},
        std::tuple{"residual reports (coordinator)", "coordinator",
                   to_coordinator}}) {
    const auto messages = static_cast<double>(stats.messages);
    const auto bytes = static_cast<double>(stats.bytes);
    table.add_row(name, {messages / rounds, bytes / rounds, bytes / 1024.0}, 1);
    csv.row(key, {messages, bytes});
  }
  std::ostringstream fig2;
  fig2 << "M = " << m << " front-ends, N = " << n
       << " datacenters; converged in " << report.iterations
       << " iterations.\n\n"
       << table.to_string() << "\nPer iteration: " << m * n << " + " << m * n
       << " + " << m + n << " = " << 2 * m * n + m + n << " messages, "
       << fixed(static_cast<double>(report.network.bytes) / rounds, 0)
       << " bytes total.\n";
  return one_block("fig2", fig2.str(), {csv});
}

// ---------------------------------------------------------------------------
// The paper week: one compare_strategies call feeds Figs. 4–8 and 11; its
// scenario feeds Fig. 3, and one peak-hour solve the queueing check.

std::string fig3_block(const traces::Scenario& scenario) {
  double capacity = 0.0;
  for (double servers : scenario.servers()) capacity += servers;
  TablePrinter prices({"Site", "price mean", "price min", "price max",
                       "carbon mean (kg/MWh)"});
  for (std::size_t j = 0; j < scenario.num_datacenters(); ++j) {
    const Vec price = scenario.prices().col(j);
    const Vec carbon = scenario.carbon_rates().col(j);
    prices.add_row(scenario.datacenter_names()[j],
                   {mean(price.raw()), min_value(price.raw()),
                    max_value(price.raw()), mean(carbon.raw())},
                   1);
  }
  std::ostringstream os;
  os << "Workload (servers required): mean "
     << fixed(mean(scenario.total_workload()), 0) << ", peak "
     << fixed(max_value(scenario.total_workload()), 0) << ", total capacity "
     << fixed(capacity, 0) << " servers\n\n"
     << prices.to_string();
  return os.str();
}

std::string fig4_block(const StrategyComparison& cmp) {
  TablePrinter table({"Index", "mean %", "min %", "max %", "p95 %"});
  add_distribution_row(table, "I_hg (Hybrid vs Grid)", cmp.improvement_hg);
  add_distribution_row(table, "I_hf (Hybrid vs FuelCell)", cmp.improvement_hf);
  add_distribution_row(table, "I_fg (FuelCell vs Grid)", cmp.improvement_fg);
  int nonnegative = 0;
  for (double v : cmp.improvement_hg) nonnegative += v > -1.0 ? 1 : 0;
  std::ostringstream os;
  os << table.to_string() << "\nI_hg >= 0 (never reduces UFC) in "
     << nonnegative << "/" << cmp.improvement_hg.size() << " hours\n";
  return os.str();
}

std::string fig5_block(const StrategyComparison& cmp) {
  TablePrinter table({"Strategy", "mean ms", "min ms", "max ms", "p95 ms"});
  for (const auto* week : {&cmp.grid, &cmp.fuel_cell, &cmp.hybrid})
    add_distribution_row(table, admm::to_string(week->strategy),
                         week->latency_ms_series());
  return table.to_string();
}

std::string fig6_block(const StrategyComparison& cmp) {
  TablePrinter table({"Strategy", "total $", "mean $/h", "max $/h"});
  for (const auto* week : {&cmp.grid, &cmp.fuel_cell, &cmp.hybrid}) {
    const auto series = week->energy_cost_series();
    table.add_row(admm::to_string(week->strategy),
                  {week->total_energy_cost(), mean(series), max_value(series)},
                  0);
  }
  std::ostringstream os;
  os << table.to_string() << "\nHybrid energy-cost reduction vs FuelCell: "
     << fixed(100.0 * (1.0 - cmp.hybrid.total_energy_cost() /
                                 cmp.fuel_cell.total_energy_cost()),
              1)
     << "%\n";
  return os.str();
}

std::string fig7_block(const StrategyComparison& cmp) {
  TablePrinter table(
      {"Strategy", "carbon $ total", "carbon tons", "energy $ total"});
  for (const auto* week : {&cmp.grid, &cmp.fuel_cell, &cmp.hybrid})
    table.add_row(admm::to_string(week->strategy),
                  {week->total_carbon_cost(), week->total_carbon_tons(),
                   week->total_energy_cost()},
                  0);
  const auto& hybrid = cmp.hybrid;
  std::ostringstream os;
  os << table.to_string() << "\nHybrid emits "
     << fixed(100.0 * hybrid.total_carbon_tons() / cmp.grid.total_carbon_tons(),
              1)
     << "% of Grid's carbon; carbon cost is "
     << fixed(100.0 * hybrid.total_carbon_cost() / hybrid.total_energy_cost(),
              1)
     << "% of its energy cost.\n";
  return os.str();
}

std::string fig8_block(const WeekResult& hybrid) {
  const auto utilization = hybrid.utilization_series();
  TablePrinter table({"Metric", "value"});
  table.add_row("mean utilization %", {100.0 * mean(utilization)}, 1);
  table.add_row("min utilization %", {100.0 * min_value(utilization)}, 1);
  table.add_row("max utilization %", {100.0 * max_value(utilization)}, 1);
  table.add_row("p95 utilization %", {100.0 * percentile(utilization, 95)}, 1);
  int above70 = 0, near_zero = 0;
  for (double u : utilization) {
    above70 += u > 0.7 ? 1 : 0;
    near_zero += u < 0.01 ? 1 : 0;
  }
  table.add_row("hours above 70%", {static_cast<double>(above70)}, 0);
  table.add_row("hours near zero", {static_cast<double>(near_zero)}, 0);
  return table.to_string();
}

std::string fig11_block(const WeekResult& hybrid) {
  const auto iters = hybrid.iteration_series();
  TablePrinter table({"Statistic", "iterations"});
  table.add_row("min", {min_value(iters)}, 0);
  table.add_row("p50", {percentile(iters, 50)}, 0);
  table.add_row("p80", {percentile(iters, 80)}, 0);
  table.add_row("p95", {percentile(iters, 95)}, 0);
  table.add_row("max", {max_value(iters)}, 0);
  int within100 = 0;
  for (double it : iters) within100 += it <= 100.0 ? 1 : 0;
  std::ostringstream os;
  os << table.to_string() << "\nRuns converged within 100 iterations: "
     << within100 << "/" << iters.size() << " ("
     << fixed(100.0 * within100 / static_cast<double>(iters.size()), 1)
     << "%)\n";
  return os.str();
}

/// The paper's modeling assumption that propagation dominates in-datacenter
/// queueing (§II-B3), checked with M/M/c on the peak-hour hybrid solution.
std::string queueing_block(const traces::Scenario& scenario) {
  const auto problem = scenario.problem_at(64);
  const auto report =
      admm::solve_strategy(problem, admm::Strategy::Hybrid, paper_admg());
  const auto queueing = assess_queueing(problem, report.solution.lambda);
  std::ostringstream os;
  os << "Queueing check (peak slot, M/M/c): propagation "
     << fixed(queueing.avg_propagation_ms, 2) << " ms vs queueing "
     << fixed(queueing.avg_queueing_ms, 4) << " ms ("
     << fixed(100.0 * queueing.queueing_share, 2)
     << "% of user-perceived latency)\n";
  return os.str();
}

SectionOutput render_week() {
  const auto scenario = paper_scenario();
  const auto cmp = compare_strategies(scenario);
  SectionOutput out;
  out.blocks = {{"fig3", fig3_block(scenario)},
                {"fig4", fig4_block(cmp)},
                {"fig5", fig5_block(cmp)},
                {"fig6", fig6_block(cmp)},
                {"fig7", fig7_block(cmp)},
                {"fig8", fig8_block(cmp.hybrid)},
                {"fig11", fig11_block(cmp.hybrid)},
                {"queueing", queueing_block(scenario)}};

  CsvSeries fig3("ufc_fig3.csv",
                 {"hour", "workload", "price_calgary", "price_san_jose",
                  "price_dallas", "price_pittsburgh", "carbon_calgary",
                  "carbon_san_jose", "carbon_dallas", "carbon_pittsburgh"});
  const auto& price = scenario.prices();
  const auto& carbon = scenario.carbon_rates();
  for (int t = 0; t < scenario.hours(); ++t) {
    const auto s = static_cast<std::size_t>(t);
    fig3.row({static_cast<double>(t), scenario.total_workload()[s],
              price(s, 0), price(s, 1), price(s, 2), price(s, 3),
              carbon(s, 0), carbon(s, 1), carbon(s, 2), carbon(s, 3)});
  }
  CsvSeries fig4("ufc_fig4.csv", {"hour", "i_hg", "i_hf", "i_fg", "ufc_grid",
                                  "ufc_fuel_cell", "ufc_hybrid"});
  CsvSeries fig5("ufc_fig5.csv", {"hour", "latency_grid_ms",
                                  "latency_fuel_cell_ms", "latency_hybrid_ms"});
  CsvSeries fig6("ufc_fig6.csv", {"hour", "energy_grid", "energy_fuel_cell",
                                  "energy_hybrid"});
  CsvSeries fig7("ufc_fig7.csv", {"hour", "carbon_grid", "carbon_fuel_cell",
                                  "carbon_hybrid"});
  CsvSeries fig8("ufc_fig8.csv",
                 {"hour", "utilization", "fuel_cell_mwh", "demand_mwh"});
  for (std::size_t t = 0; t < cmp.grid.slots.size(); ++t) {
    const auto& g = cmp.grid.slots[t].breakdown;
    const auto& f = cmp.fuel_cell.slots[t].breakdown;
    const auto& h = cmp.hybrid.slots[t].breakdown;
    const auto hour = static_cast<double>(cmp.grid.slots[t].slot);
    fig4.row({hour, cmp.improvement_hg[t], cmp.improvement_hf[t],
              cmp.improvement_fg[t], g.ufc, f.ufc, h.ufc});
    fig5.row({hour, g.avg_latency_ms, f.avg_latency_ms, h.avg_latency_ms});
    fig6.row({hour, g.energy_cost, f.energy_cost, h.energy_cost});
    fig7.row({hour, g.carbon_cost, f.carbon_cost, h.carbon_cost});
    fig8.row({static_cast<double>(cmp.hybrid.slots[t].slot), h.utilization,
              h.fuel_cell_mwh, h.demand_mwh});
  }
  CsvSeries fig11("ufc_fig11.csv", {"iterations", "cdf"});
  for (const auto& point : empirical_cdf(cmp.hybrid.iteration_series()))
    fig11.row({point.value, point.cumulative});
  out.series = {fig3, fig4, fig5, fig6, fig7, fig8, fig11};
  return out;
}

// ---------------------------------------------------------------------------
// Figs. 9 and 10: the policy sweeps, every second hour of the week.

SectionOutput render_sweep(bool price_sweep) {
  SimulatorOptions options;
  options.stride = 2;
  const traces::ScenarioConfig config;  // paper defaults (p0 = 80)
  const std::array<double, 9> prices = {10.0, 20.0,  30.0,  45.0, 60.0,
                                        80.0, 95.0, 110.0, 130.0};
  const std::array<double, 9> taxes = {0.0,  10.0, 25.0,  40.0, 60.0,
                                       90.0, 120.0, 150.0, 200.0};
  const auto points = price_sweep
                          ? sweep_fuel_cell_price(config, prices, options)
                          : sweep_carbon_tax(config, taxes, options);

  TablePrinter table({price_sweep ? "p0 ($/MWh)" : "tax ($/ton)",
                      "avg UFC improvement %", "avg fuel cell utilization %"});
  CsvSeries csv(price_sweep ? "ufc_fig9.csv" : "ufc_fig10.csv",
                {price_sweep ? "p0" : "tax", "avg_improvement_pct",
                 "avg_utilization_pct"});
  for (const auto& point : points) {
    const double utilization = 100.0 * point.avg_utilization;
    table.add_row(fixed(point.parameter, 0),
                  {point.avg_improvement_pct, utilization}, 1);
    csv.row({point.parameter, point.avg_improvement_pct, utilization});
  }
  return one_block(price_sweep ? "fig9" : "fig10", table.to_string(), {csv});
}

SectionOutput render_price_sweep() { return render_sweep(true); }
SectionOutput render_tax_sweep() { return render_sweep(false); }

// ---------------------------------------------------------------------------
// Ablations of the ADM-G design choices DESIGN.md calls out, on every 12th
// hour of the paper week: the Gaussian back substitution, epsilon, rho, a
// non-smooth stepped carbon tax, and warm starts across slots.

struct VariantResult {
  double mean_iterations = 0.0;
  double max_iterations = 0.0;
  double converged_fraction = 0.0;
  double ufc_total = 0.0;

  void add(const admm::AdmgReport& report) {
    mean_iterations += report.iterations;
    max_iterations =
        std::max(max_iterations, static_cast<double>(report.iterations));
    converged_fraction += report.converged ? 1.0 : 0.0;
    ufc_total += report.breakdown.ufc;
  }
};

/// A dense update carrying every field that differs between scenario hours
/// (arrivals, grid prices, carbon rates, fuel-cell caps), so apply_update
/// turns a warm solver's problem into `problem`.
admm::ProblemUpdate full_update(const UfcProblem& problem) {
  admm::ProblemUpdate update;
  for (std::size_t i = 0; i < problem.num_front_ends(); ++i)
    update.arrivals.emplace_back(i, problem.arrivals[i]);
  for (std::size_t j = 0; j < problem.num_datacenters(); ++j) {
    const auto& dc = problem.datacenters[j];
    update.grid_prices.emplace_back(j, dc.grid_price);
    update.carbon_rates.emplace_back(j, dc.carbon_rate);
    update.fuel_cell_caps.emplace_back(j, dc.fuel_cell_capacity_mw);
  }
  return update;
}

SectionOutput render_ablation() {
  const auto scenario = paper_scenario();
  std::vector<int> slots;
  for (int t = 4; t < scenario.hours(); t += 12) slots.push_back(t);
  const admm::AdmgOptions base = paper_admg();

  TablePrinter table({"Variant", "mean iters", "max iters", "converged %",
                      "UFC total"});
  CsvSeries csv("ufc_ablation.csv", {"variant", "mean_iters", "max_iters",
                                     "converged_pct", "ufc_total"});
  // Turns a variant's sums over the slots into means, and reports it.
  const auto report = [&](const std::string& name, const VariantResult& sums) {
    const auto count = static_cast<double>(slots.size());
    const std::vector<double> cells = {
        sums.mean_iterations / count, sums.max_iterations,
        100.0 * (sums.converged_fraction / count), sums.ufc_total};
    table.add_row(name, cells, 1);
    csv.row(name, cells);
  };
  const auto cold = [&](const std::string& name,
                        const admm::AdmgOptions& options) {
    VariantResult sums;
    for (int slot : slots)
      sums.add(admm::solve_admg(scenario.problem_at(slot), options));
    report(name, sums);
  };

  auto plain = base;
  plain.gaussian_back_substitution = false;
  cold("ADM-G (default)", base);
  cold("plain 4-block ADMM (no correction)", plain);
  for (double epsilon : {0.6, 0.8, 1.0}) {
    auto options = base;
    options.epsilon = epsilon;
    cold("epsilon = " + fixed(epsilon, 1), options);
  }
  for (double rho : {0.3, 3.0, 10.0, 30.0}) {
    auto options = base;
    options.rho = rho;
    options.max_iterations = 4000;
    cold("rho = " + fixed(rho, 1), options);
  }
  {
    // The case ADM-G exists for: a non-smooth, non-strongly-convex carbon
    // policy (stepped tax). Compare the corrected and uncorrected methods.
    auto stepped = std::make_shared<SteppedCarbonTax>(
        std::vector<double>{0.3, 1.0}, std::vector<double>{5.0, 30.0, 120.0});
    VariantResult corrected, uncorrected;
    for (int slot : slots) {
      auto problem = scenario.problem_at(slot);
      for (auto& dc : problem.datacenters) dc.emission_cost = stepped;
      corrected.add(admm::solve_admg(problem, base));
      uncorrected.add(admm::solve_admg(problem, plain));
    }
    report("stepped tax, ADM-G", corrected);
    report("stepped tax, plain ADMM", uncorrected);
  }
  {
    // Warm starting across consecutive sampled hours (operational
    // optimization; the paper's Fig. 11 counts cold starts).
    VariantResult warm;
    admm::AdmgSolver solver(scenario.problem_at(slots.front()), base);
    warm.add(solver.solve());
    for (std::size_t k = 1; k < slots.size(); ++k) {
      solver.apply_update(full_update(scenario.problem_at(slots[k])));
      warm.add(solver.solve_warm());
    }
    report("warm start across slots", warm);
  }
  return one_block("ablation", table.to_string(), {csv});
}

// ---------------------------------------------------------------------------
// The paper's §II-C Remark: always-on fleets versus right-sizing the active
// fleet to the routed load, over a simulated Wednesday.

SectionOutput render_rightsizing() {
  const auto scenario = paper_scenario();
  const admm::AdmgOptions admg = paper_admg();
  TablePrinter table({"hour", "UFC always-on $", "UFC right-sized $",
                      "gain %", "active servers %"});
  CsvSeries csv("ufc_rightsizing.csv",
                {"hour", "ufc_always_on", "ufc_right_sized", "gain_pct",
                 "active_fraction"});
  double total_always = 0.0, total_sized = 0.0, total_capacity = 0.0;
  for (double s : scenario.servers()) total_capacity += s;
  for (int hour = 48; hour < 72; ++hour) {
    const auto problem = scenario.problem_at(hour);
    const double always =
        admm::solve_strategy(problem, admm::Strategy::Hybrid, admg)
            .breakdown.ufc;
    const auto sized =
        admm::solve_right_sized(problem, admm::Strategy::Hybrid, admg);
    const double sized_ufc = sized.final_report.breakdown.ufc;
    const double gain = improvement_percent(sized_ufc, always);
    double active = 0.0;
    for (double s : sized.active_servers) active += s;
    const double active_fraction = active / total_capacity;
    total_always += always;
    total_sized += sized_ufc;
    table.add_row(fixed(hour, 0),
                  {always, sized_ufc, gain, 100.0 * active_fraction}, 1);
    csv.row({static_cast<double>(hour), always, sized_ufc, gain,
             active_fraction});
  }
  std::ostringstream os;
  os << table.to_string() << "\nDay total: always-on UFC "
     << fixed(total_always, 0) << " vs right-sized " << fixed(total_sized, 0)
     << " (" << fixed(improvement_percent(total_sized, total_always), 1)
     << "% better)\n";
  return one_block("rightsizing", os.str(), {csv});
}

// ---------------------------------------------------------------------------
// Extensions: planning on forecasts, straggling front-ends, batteries and a
// deferrable batch overlay.

SectionOutput render_forecast() {
  const auto scenario = paper_scenario();
  TablePrinter table({"forecaster", "workload MAPE %", "avg UFC gap %",
                      "max UFC gap %"});
  CsvSeries csv("ufc_forecast.csv",
                {"method", "mape_pct", "avg_gap_pct", "max_gap_pct"});
  for (const auto& [method, name] :
       {std::pair{ForecastMethod::SeasonalNaive, "seasonal-naive"},
        std::pair{ForecastMethod::HoltWinters, "holt-winters"}}) {
    ForecastStudyOptions options;
    options.method = method;
    options.skip_slots = 48;
    const auto result = run_forecast_study(scenario, options);
    const std::vector<double> cells = {100.0 * result.workload_mape,
                                       result.avg_ufc_gap_pct,
                                       result.max_ufc_gap_pct};
    table.add_row(name, cells, 2);
    csv.row(name, cells);
  }
  return one_block("forecast", table.to_string(), {csv});
}

SectionOutput render_async() {
  const auto problem = paper_scenario().problem_at(64);  // peak hour
  admm::AsyncOptions base;
  base.admg = paper_admg();
  base.admg.max_iterations = 4000;
  base.admg.record_trace = true;  // the per-iteration convergence series
  const auto reference = admm::solve_async_admg(problem, base);

  TablePrinter table({"participation", "iterations", "skipped updates",
                      "UFC $", "UFC gap %"});
  CsvSeries csv("ufc_async.csv",
                {"participation", "iterations", "skipped", "ufc", "gap_pct"});
  CsvSeries trace_csv("ufc_async_trace.csv",
                      {"participation", "iteration", "balance_residual",
                       "copy_residual", "objective"});
  for (double rate : {1.0, 0.9, 0.7, 0.5, 0.3}) {
    auto options = base;
    options.participation = rate;
    options.seed = 7;
    const auto report = admm::solve_async_admg(problem, options);
    std::vector<double> cells = {
        static_cast<double>(report.iterations),
        static_cast<double>(report.skipped_updates), report.breakdown.ufc,
        improvement_percent(report.breakdown.ufc, reference.breakdown.ufc)};
    table.add_row(fixed(rate, 1), cells, 2);
    cells.insert(cells.begin(), rate);
    csv.row(cells);
    const auto& trace = report.trace;
    for (std::size_t k = 0; k < trace.balance_residual.size(); ++k)
      trace_csv.row({rate, static_cast<double>(k), trace.balance_residual[k],
                     trace.copy_residual[k], trace.objective[k]});
  }
  return {{{"async", table.to_string()}}, {csv, trace_csv}};
}

SectionOutput render_storage() {
  const auto scenario = paper_scenario();
  TablePrinter table({"battery (MWh / MW)", "policy", "energy saving $",
                      "saving %", "peak grid cut %", "carbon delta t"});
  CsvSeries csv("ufc_storage.csv",
                {"capacity_mwh", "rate_mw", "policy", "saving", "saving_pct",
                 "peak_cut_pct", "carbon_delta_tons"});
  const auto emit = [&](double capacity, double rate, const std::string& name,
                        const StorageWeekResult& result) {
    std::vector<std::string> row = {
        fixed(capacity, 0) + " / " + fixed(rate, 0), name};
    std::vector<std::string> csv_row = {csv_number(capacity), csv_number(rate),
                                        name};
    for (double cell : {result.total_saving, result.saving_pct,
                        result.peak_reduction_pct, result.carbon_delta_tons}) {
      row.push_back(fixed(cell, 2));
      csv_row.push_back(csv_number(cell));
    }
    table.add_row(std::move(row));
    csv.row_strings(std::move(csv_row));
  };
  const std::array<std::pair<double, double>, 4> sizes = {
      std::pair{2.0, 1.0}, {8.0, 2.0}, {20.0, 5.0}, {50.0, 12.0}};
  for (const auto& [capacity, rate] : sizes) {
    StoragePolicyOptions policy;
    policy.battery.capacity_mwh = capacity;
    policy.battery.max_charge_mw = rate;
    policy.battery.max_discharge_mw = rate;
    emit(capacity, rate, "threshold", run_storage_week(scenario, policy));
    OptimalStorageOptions optimal;
    optimal.battery = policy.battery;
    emit(capacity, rate, "DP-optimal",
         run_storage_week_optimal(scenario, optimal));
  }
  return one_block("storage", table.to_string(), {csv});
}

SectionOutput render_batch() {
  const auto scenario = paper_scenario();
  TablePrinter table({"deadline h", "batch frac", "inline $", "scheduled $",
                      "saving %", "deferred %", "avg delay h"});
  CsvSeries csv("ufc_batch.csv",
                {"deadline_h", "fraction", "inline_cost", "scheduled_cost",
                 "saving_pct", "deferred_pct", "avg_delay_h"});
  for (const int deadline : {0, 2, 6, 12, 24}) {
    BatchWorkloadOptions batch;
    batch.batch_fraction = 0.2;
    batch.deadline_hours = deadline;
    const auto result = run_batch_week(scenario, batch);
    std::vector<double> cells = {batch.batch_fraction, result.inline_cost,
                                 result.scheduled_cost, result.saving_pct,
                                 100.0 * result.deferred_fraction,
                                 result.average_delay_hours};
    table.add_row(fixed(deadline, 0), cells, 2);
    cells.insert(cells.begin(), static_cast<double>(deadline));
    csv.row(cells);
  }
  return one_block("batch", table.to_string(), {csv});
}

// ---------------------------------------------------------------------------
// Robustness of the headline metrics across scenario seeds.

SectionOutput render_seeds() {
  SimulatorOptions options;
  options.stride = 2;
  const std::array<const char*, 5> metrics = {
      "avg I_hg %", "avg I_hf %", "avg fuel-cell utilization",
      "grid - fuelcell latency ms", "hybrid vs fuel-cell energy cut %"};
  std::array<RunningStats, 5> stats;
  CsvSeries csv("ufc_seeds.csv",
                {"seed", "avg_i_hg", "avg_i_hf", "avg_utilization",
                 "grid_minus_fc_latency_ms", "hybrid_vs_fc_energy_cut_pct"});
  const std::array<std::uint64_t, 6> seeds = {42, 7, 1234, 2026, 99, 5150};
  for (const auto seed : seeds) {
    traces::ScenarioConfig config;
    config.seed = seed;
    const auto cmp =
        compare_strategies(traces::Scenario::generate(config), options);
    std::vector<double> values = {
        cmp.average_improvement_hg(), cmp.average_improvement_hf(),
        cmp.hybrid.average_utilization(),
        cmp.grid.average_latency_ms() - cmp.fuel_cell.average_latency_ms(),
        100.0 * (1.0 - cmp.hybrid.total_energy_cost() /
                           cmp.fuel_cell.total_energy_cost())};
    for (std::size_t k = 0; k < stats.size(); ++k) stats[k].add(values[k]);
    values.insert(values.begin(), static_cast<double>(seed));
    csv.row(values);
  }
  TablePrinter table({"Metric", "mean", "sd", "min", "max"});
  for (std::size_t k = 0; k < metrics.size(); ++k)
    table.add_row(metrics[k], {stats[k].mean(), stats[k].stddev(),
                               stats[k].min(), stats[k].max()},
                  2);
  return one_block("seeds", table.to_string(), {csv});
}

// ---------------------------------------------------------------------------
// docs/ROBUSTNESS.md: the degraded distributed ADM-G under injected message
// loss, delivery delay and a datacenter crash, at three problem sizes. The
// zero-fault row of each size is the baseline its gaps are measured against.

/// Random feasible instance at ~55% load so that removing any single
/// datacenter (the crash rows) keeps the reduced problem feasible.
UfcProblem random_problem(std::size_t m, std::size_t n) {
  Rng rng(1234);
  UfcProblem p;
  p.power = ServerPowerModel{100.0, 200.0};
  p.fuel_cell_price = 80.0;
  p.latency_weight = 10.0;
  p.utility = std::make_shared<QuadraticUtility>();
  double capacity = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    DatacenterSpec dc;
    dc.name = "dc" + std::to_string(j);
    dc.servers = rng.uniform(1.7e4, 2.3e4);
    dc.grid_price = rng.uniform(15.0, 120.0);
    dc.carbon_rate = rng.uniform(200.0, 900.0);
    dc.fuel_cell_capacity_mw = dc.servers * 200.0 * 1.2 / 1e6;
    dc.emission_cost = std::make_shared<AffineCarbonTax>(25.0);
    capacity += dc.servers;
    p.datacenters.push_back(std::move(dc));
  }
  Rng shares_rng(7);
  p.arrivals =
      normal_shares(shares_rng, static_cast<int>(m), 0.55 * capacity, 0.35);
  p.latency_s = Mat(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      p.latency_s(i, j) = rng.uniform(0.002, 0.045);
  return p;
}

struct FaultRun {
  std::string experiment;
  double param = 0.0;
  net::DistributedOptions options;
};

SectionOutput render_faults() {
  // The health tracker declares a datacenter dead after this many silent
  // rounds; the crash rows take one window on each side of it.
  constexpr int kDeadAfterRounds = 5;
  constexpr int kCrashRound = 20;

  TablePrinter table({"experiment", "M", "N", "param", "iterations",
                      "iter x", "kB on wire", "traffic x", "retrans",
                      "failures", "stale", "UFC gap %"});
  CsvSeries csv("ufc_faults.csv",
                {"experiment", "m", "n", "param", "iterations",
                 "iter_inflation", "bytes", "traffic_inflation",
                 "retransmissions", "delivery_failures", "stale_inputs",
                 "ufc", "gap_pct"});
  for (const auto& [m, n] :
       {std::pair<std::size_t, std::size_t>{4, 3}, {10, 4}, {20, 6}}) {
    // The zero-fault baseline runs in strict lockstep, bit-identical to the
    // monolithic solver; every other run uses the degraded protocol.
    net::DistributedOptions clean;
    clean.admg = paper_admg();
    clean.admg.max_iterations = 4000;
    auto degraded = clean;
    degraded.degraded = true;
    degraded.max_attempts = 4;
    degraded.dead_after_rounds = kDeadAfterRounds;
    std::vector<FaultRun> runs = {{"baseline", 0.0, clean}};
    for (double loss : {0.1, 0.2, 0.4}) {
      runs.push_back({"loss", loss, degraded});
      runs.back().options.faults.random_faults({.loss_rate = loss});
    }
    for (int delay_rounds : {1, 2, 4}) {
      runs.push_back({"delay", static_cast<double>(delay_rounds), degraded});
      runs.back().options.faults.random_faults(
          {.delay_rate = 0.3, .max_delay_rounds = delay_rounds});
    }
    for (int window : {kDeadAfterRounds - 2, net::kForeverRound}) {
      const bool forever = window == net::kForeverRound;
      runs.push_back(
          {"crash", forever ? -1.0 : static_cast<double>(window), degraded});
      runs.back().options.faults.crash(
          net::datacenter_id(0),
          {kCrashRound, forever ? net::kForeverRound : kCrashRound + window});
    }

    const auto problem = random_problem(m, n);
    std::vector<net::DistributedReport> reports;
    for (const auto& run : runs)
      reports.push_back(
          net::DistributedAdmgRuntime(problem, run.options).run());
    const auto& baseline = reports.front();
    for (std::size_t k = 0; k < runs.size(); ++k) {
      const auto& r = reports[k];
      const auto bytes = static_cast<double>(r.network.bytes);
      // A crash that trips the health tracker converges to the optimum of
      // the problem without the datacenter, so its gap compares two
      // different problems, not the solver against itself.
      std::vector<double> cells = {
          static_cast<double>(m),
          static_cast<double>(n),
          runs[k].param,
          static_cast<double>(r.iterations),
          static_cast<double>(r.iterations) /
              static_cast<double>(baseline.iterations),
          bytes,
          bytes / static_cast<double>(baseline.network.bytes),
          static_cast<double>(r.network.retransmissions),
          static_cast<double>(r.network.delivery_failures),
          static_cast<double>(r.stale_inputs),
          r.breakdown.ufc,
          improvement_percent(r.breakdown.ufc, baseline.breakdown.ufc)};
      csv.row(runs[k].experiment, cells);
      cells[5] /= 1024.0;               // The table shows kB on the wire,
      cells.erase(cells.begin() + 10);  // and the gap without the UFC.
      table.add_row(runs[k].experiment + " " + fixed(runs[k].param, 1), cells,
                    2);
    }
  }
  return one_block("faults", table.to_string(), {csv});
}

// ---------------------------------------------------------------------------
// The generated-block markers.

constexpr std::string_view kOpenMarker = "<!-- ufc:generated ";
constexpr std::string_view kMarkerEnd = " -->";
constexpr std::string_view kCloseMarker = "<!-- /ufc:generated -->";

[[noreturn]] void malformed(const std::string& what) {
  throw ContractViolation("ufc:generated markers: " + what);
}

bool starts_line(const std::string& text, std::size_t pos) {
  return pos == 0 || text[pos - 1] == '\n';
}

}  // namespace

std::string marked_block(const RenderedBlock& block) {
  std::string text(kOpenMarker);
  text += block.name;
  text += kMarkerEnd;
  text += '\n';
  text += block.text;
  text += kCloseMarker;
  return text;
}

const std::vector<ReproduceSection>& reproduce_sections() {
  static const std::vector<ReproduceSection> sections = {
      {"single_site", {"table1", "fig1"}, render_single_site},
      {"protocol", {"fig2"}, render_protocol},
      {"week",
       {"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig11", "queueing"},
       render_week},
      {"price_sweep", {"fig9"}, render_price_sweep},
      {"tax_sweep", {"fig10"}, render_tax_sweep},
      {"ablation", {"ablation"}, render_ablation},
      {"rightsizing", {"rightsizing"}, render_rightsizing},
      {"forecast", {"forecast"}, render_forecast},
      {"async", {"async"}, render_async},
      {"storage", {"storage"}, render_storage},
      {"batch", {"batch"}, render_batch},
      {"seeds", {"seeds"}, render_seeds},
      {"faults", {"faults"}, render_faults},
  };
  return sections;
}

std::string rewrite_generated_blocks(
    const std::string& markdown, const std::vector<RenderedBlock>& rendered) {
  std::set<std::string> known;
  for (const auto& section : reproduce_sections())
    known.insert(section.blocks.begin(), section.blocks.end());

  std::string out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t open = markdown.find(kOpenMarker, pos);
    if (markdown.find(kCloseMarker, pos) < open)
      malformed("close marker without an open marker");
    if (open == std::string::npos) break;

    const std::size_t name_begin = open + kOpenMarker.size();
    const std::size_t name_end = markdown.find(kMarkerEnd, name_begin);
    const std::size_t body = name_end + kMarkerEnd.size();
    if (name_end == std::string::npos || body >= markdown.size() ||
        markdown[body] != '\n' || !starts_line(markdown, open))
      malformed("an open marker must sit on its own line");
    const std::string name = markdown.substr(name_begin, name_end - name_begin);
    if (known.count(name) == 0)
      malformed("no section renders a block named \"" + name + "\"");

    const std::size_t close = markdown.find(kCloseMarker, body);
    if (close == std::string::npos || markdown.find(kOpenMarker, body) < close)
      malformed("block \"" + name + "\" is not closed");
    if (!starts_line(markdown, close))
      malformed("the close marker of \"" + name + "\" must start its line");

    const auto block =
        std::find_if(rendered.begin(), rendered.end(),
                     [&](const RenderedBlock& b) { return b.name == name; });
    const std::size_t end = close + kCloseMarker.size();
    if (block == rendered.end()) {
      out.append(markdown, pos, end - pos);
    } else {
      out.append(markdown, pos, open - pos);
      out += marked_block(*block);
    }
    pos = end;
  }
  out.append(markdown, pos, std::string::npos);
  return out;
}

}  // namespace ufc::sim
