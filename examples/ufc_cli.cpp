// ufc_cli — configuration-driven driver for the UFC library.
//
//   ./example_ufc_cli <command> [config.ini] [--metrics <path>]
//   ./example_ufc_cli reproduce [DOC.md...]
//
// Commands:
//   solve       solve one slot and print the full breakdown per strategy
//   simulate    run the whole scenario horizon and print the comparison
//   sweep-price reproduce the Fig. 9 style p0 sweep
//   sweep-tax   reproduce the Fig. 10 style carbon-tax sweep
//   traces      dump the generated traces to CSV
//   reproduce   render the paper's results (sim/reproduce.hpp) and write
//               their ufc_*.csv series into the working directory; with no
//               DOC it prints every generated block, otherwise it rewrites
//               the marked blocks of each DOC in place, e.g. from the
//               repo root: reproduce EXPERIMENTS.md docs/ROBUSTNESS.md
//
// --metrics <path> writes a machine-readable run manifest (schema
// ufc-run-v1, see docs/OBSERVABILITY.md): the scenario/solver configuration,
// per-command results and the aggregated metrics registry. Attaching the
// instrumentation never changes solver results — observers are read-only.
//
// All parameters default to the paper's setup and can be overridden from an
// INI file, e.g.:
//
//   [scenario]
//   seed = 7
//   hours = 72
//   fuel_cell_price = 60   ; $/MWh
//   carbon_tax = 40        ; $/ton
//   [solver]
//   rho = 10
//   tolerance = 3e-3
//   [simulate]
//   slot = 64
//   stride = 2
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "admm/options.hpp"
#include "model/metrics.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics_observer.hpp"
#include "sim/manifest.hpp"
#include "sim/reproduce.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "util/config.hpp"
#include "util/csv.hpp"
#include "util/paths.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace ufc;

/// The --metrics capture: commands record into the registry (through the
/// observer seam) and add manifest sections; main() writes the file.
struct MetricsCapture {
  obs::MetricsRegistry registry;
  obs::RunManifest manifest;
};

traces::ScenarioConfig scenario_from(const Config& config) {
  return traces::scenario_config_from(config);
}

sim::SimulatorOptions simulator_from(const Config& config) {
  return sim::simulator_options_from(config);
}

int cmd_solve(const Config& config, MetricsCapture* capture) {
  const auto scenario = traces::Scenario::generate(scenario_from(config));
  const int slot = config.get_int("simulate.slot", 64);
  const auto problem = scenario.problem_at(slot);
  // One slot, no simulation loop: bind the [solver] keys straight to
  // AdmgOptions, starting from the simulator's paper-scale defaults.
  auto admg = admm::options_from_config(config, sim::SimulatorOptions{}.admg);
  std::optional<obs::MetricsObserver> observer;
  if (capture != nullptr) {
    observer.emplace(capture->registry);
    admg.observer = &*observer;
    admg.profile_phases = true;
  }

  std::cout << "Slot " << slot << " (" << problem.num_front_ends()
            << " front-ends, " << problem.num_datacenters()
            << " datacenters, total arrivals "
            << fixed(problem.total_arrivals(), 0) << " servers)\n\n";

  obs::JsonValue strategies = obs::JsonValue::object();
  TablePrinter table({"Strategy", "UFC $", "energy $", "carbon $",
                      "latency ms", "fuel cell %", "CUE kg/kWh", "iters"});
  for (const auto strategy : admm::kAllStrategies) {
    const auto report = admm::solve_strategy(problem, strategy, admg);
    const auto& b = report.breakdown;
    const auto idx = complementary_indexes(problem, report.solution.lambda,
                                           report.solution.mu);
    table.add_row(admm::to_string(strategy),
                  {b.ufc, b.energy_cost, b.carbon_cost, b.avg_latency_ms,
                   100.0 * b.utilization, idx.cue_kg_per_kwh,
                   static_cast<double>(report.iterations)},
                  2);
    if (capture != nullptr)
      strategies.set(admm::to_string(strategy), obs::solve_core_json(report));
  }
  table.print();
  if (capture != nullptr) {
    capture->manifest.set("command", obs::JsonValue("solve"));
    capture->manifest.set("scenario",
                          sim::scenario_config_json(scenario.config()));
    capture->manifest.set("solver", sim::admg_options_json(admg));
    capture->manifest.set("slot", obs::JsonValue(slot));
    capture->manifest.set("strategies", std::move(strategies));
  }
  return 0;
}

int cmd_simulate(const Config& config, MetricsCapture* capture) {
  const auto scenario = traces::Scenario::generate(scenario_from(config));
  auto options = simulator_from(config);
  std::optional<obs::MetricsObserver> observer;
  if (capture != nullptr) {
    observer.emplace(capture->registry);
    options.admg.observer = &*observer;
    options.admg.profile_phases = true;
  }
  std::cout << "Simulating " << scenario.hours() << " hours (stride "
            << options.stride << ") x 3 strategies...\n\n";
  const auto cmp = sim::compare_strategies(scenario, options);

  TablePrinter table({"Strategy", "total UFC $", "energy $", "carbon t",
                      "latency ms", "fuel cell %"});
  for (const auto* week : {&cmp.grid, &cmp.fuel_cell, &cmp.hybrid}) {
    table.add_row(admm::to_string(week->strategy),
                  {week->total_ufc(), week->total_energy_cost(),
                   week->total_carbon_tons(), week->average_latency_ms(),
                   100.0 * week->average_utilization()},
                  1);
  }
  table.print();
  std::cout << "\nI_hg avg " << fixed(cmp.average_improvement_hg(), 1)
            << "%  I_hf avg " << fixed(cmp.average_improvement_hf(), 1)
            << "%  I_fg avg " << fixed(cmp.average_improvement_fg(), 1)
            << "%\n";

  const std::string csv_path = util::output_path(
      config, config.get_string("output.csv", "ufc_simulate.csv"));
  CsvWriter csv(csv_path, {"hour", "ufc_grid", "ufc_fuel_cell", "ufc_hybrid"});
  for (std::size_t t = 0; t < cmp.grid.slots.size(); ++t)
    csv.row({static_cast<double>(cmp.grid.slots[t].slot),
             cmp.grid.slots[t].breakdown.ufc,
             cmp.fuel_cell.slots[t].breakdown.ufc,
             cmp.hybrid.slots[t].breakdown.ufc});
  std::cout << "Per-slot series: " << csv.path() << "\n";
  if (capture != nullptr) {
    capture->manifest.set("command", obs::JsonValue("simulate"));
    capture->manifest.set("scenario",
                          sim::scenario_config_json(scenario.config()));
    capture->manifest.set("simulator", sim::simulator_options_json(options));
    obs::JsonValue weeks = obs::JsonValue::object();
    weeks.set("grid", sim::week_result_json(cmp.grid));
    weeks.set("fuel_cell", sim::week_result_json(cmp.fuel_cell));
    weeks.set("hybrid", sim::week_result_json(cmp.hybrid));
    capture->manifest.set("weeks", std::move(weeks));
    obs::JsonValue improvements = obs::JsonValue::object();
    improvements.set("hybrid_vs_grid_pct",
                     obs::JsonValue(cmp.average_improvement_hg()));
    improvements.set("hybrid_vs_fuel_cell_pct",
                     obs::JsonValue(cmp.average_improvement_hf()));
    improvements.set("fuel_cell_vs_grid_pct",
                     obs::JsonValue(cmp.average_improvement_fg()));
    capture->manifest.set("improvements", std::move(improvements));
  }
  return 0;
}

int cmd_sweep(const Config& config, bool price_sweep, MetricsCapture* capture) {
  const auto base = scenario_from(config);
  auto options = simulator_from(config);
  if (!config.has("simulate.stride")) options.stride = 2;

  const double lo = config.get_double("sweep.min", price_sweep ? 10.0 : 0.0);
  const double hi = config.get_double("sweep.max", price_sweep ? 130.0 : 200.0);
  const int steps = config.get_int("sweep.steps", 7);
  std::vector<double> params;
  for (int k = 0; k < steps; ++k)
    params.push_back(lo + (hi - lo) * k / std::max(1, steps - 1));

  obs::MetricsRegistry* registry =
      capture != nullptr ? &capture->registry : nullptr;
  const auto points =
      price_sweep ? sim::sweep_fuel_cell_price(base, params, options, registry)
                  : sim::sweep_carbon_tax(base, params, options, registry);
  TablePrinter table({price_sweep ? "p0 ($/MWh)" : "tax ($/ton)",
                      "UFC improvement %", "utilization %"});
  for (const auto& point : points)
    table.add_row(fixed(point.parameter, 0),
                  {point.avg_improvement_pct, 100.0 * point.avg_utilization},
                  1);
  table.print();
  if (capture != nullptr) {
    capture->manifest.set(
        "command", obs::JsonValue(price_sweep ? "sweep-price" : "sweep-tax"));
    capture->manifest.set("scenario", sim::scenario_config_json(base));
    capture->manifest.set("simulator", sim::simulator_options_json(options));
    capture->manifest.set("points", sim::sweep_points_json(points));
  }
  return 0;
}

int cmd_traces(const Config& config, MetricsCapture* capture) {
  const auto scenario = traces::Scenario::generate(scenario_from(config));
  if (capture != nullptr) {
    capture->manifest.set("command", obs::JsonValue("traces"));
    capture->manifest.set("scenario",
                          sim::scenario_config_json(scenario.config()));
  }
  const std::string csv_path = util::output_path(
      config, config.get_string("output.csv", "ufc_traces.csv"));
  CsvWriter csv(csv_path,
                {"hour", "workload", "price_calgary", "price_san_jose",
                 "price_dallas", "price_pittsburgh", "carbon_calgary",
                 "carbon_san_jose", "carbon_dallas", "carbon_pittsburgh"});
  for (int t = 0; t < scenario.hours(); ++t) {
    const auto slot = static_cast<std::size_t>(t);
    csv.row({static_cast<double>(t), scenario.total_workload()[slot],
             scenario.prices()(slot, 0), scenario.prices()(slot, 1),
             scenario.prices()(slot, 2), scenario.prices()(slot, 3),
             scenario.carbon_rates()(slot, 0), scenario.carbon_rates()(slot, 1),
             scenario.carbon_rates()(slot, 2),
             scenario.carbon_rates()(slot, 3)});
  }
  std::cout << "Wrote " << csv.rows_written() << " rows to " << csv.path()
            << "\n";
  return 0;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

int cmd_reproduce(const std::vector<std::string>& documents) {
  // Read every document and check its markers (a rewrite with no rendered
  // block) before solving anything: a wrong path or a malformed marker
  // fails at once and leaves every file untouched.
  std::vector<std::string> texts;
  for (const auto& path : documents) {
    texts.push_back(read_text(path));
    sim::rewrite_generated_blocks(texts.back(), {});
  }
  std::vector<sim::RenderedBlock> blocks;
  for (const auto& section : sim::reproduce_sections()) {
    const auto output = section.render();
    for (const auto& series : output.series) {
      CsvWriter csv(series.file, series.header);
      for (const auto& row : series.rows) csv.row_strings(row);
    }
    blocks.insert(blocks.end(), output.blocks.begin(), output.blocks.end());
  }
  if (documents.empty()) {
    for (const auto& block : blocks)
      std::cout << sim::marked_block(block) << "\n\n";
    return 0;
  }
  for (std::size_t k = 0; k < documents.size(); ++k) {
    const std::string text = sim::rewrite_generated_blocks(texts[k], blocks);
    const bool changed = text != texts[k];
    if (changed) {
      std::ofstream out(documents[k], std::ios::binary);
      out << text;
      if (!out) throw std::runtime_error("cannot write " + documents[k]);
    }
    std::cout << documents[k] << (changed ? ": rewritten\n" : ": up to date\n");
  }
  return 0;
}

int usage() {
  std::cout <<
      "usage: ufc_cli <command> [config.ini] [--metrics <path>]\n"
      "       ufc_cli reproduce [DOC.md...]\n"
      "  solve        solve one slot, print per-strategy breakdowns\n"
      "  simulate     run the scenario horizon, compare strategies\n"
      "  sweep-price  sweep the fuel-cell price p0 (Fig. 9 style)\n"
      "  sweep-tax    sweep the carbon tax (Fig. 10 style)\n"
      "  traces       dump generated traces to CSV\n"
      "  reproduce    render the paper's results and their ufc_*.csv; with\n"
      "               DOC.md paths, rewrite their generated blocks in place\n"
      "  --metrics    write a ufc-run-v1 manifest (config, results, metrics)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Split [config.ini] from the --metrics flag; the flag may appear anywhere
  // after the command.
  std::vector<std::string> positional;
  std::string metrics_path;
  for (int arg = 1; arg < argc; ++arg) {
    const std::string token = argv[arg];
    if (token == "--metrics") {
      if (arg + 1 >= argc) {
        std::cerr << "error: --metrics requires a path argument\n";
        return 2;
      }
      metrics_path = argv[++arg];
    } else {
      positional.push_back(token);
    }
  }
  if (positional.empty()) return usage();
  const std::string command = positional[0];
  if (command == "reproduce") {
    if (!metrics_path.empty()) {
      std::cerr << "error: reproduce takes no --metrics\n";
      return 2;
    }
    try {
      return cmd_reproduce({positional.begin() + 1, positional.end()});
    } catch (const std::exception& error) {
      std::cerr << "error: " << error.what() << "\n";
      return 1;
    }
  }
  Config config;
  if (positional.size() > 1) {
    try {
      config = Config::load(positional[1]);
    } catch (const std::exception& error) {
      std::cerr << "error: " << error.what() << "\n";
      return 1;
    }
  }
  std::optional<MetricsCapture> capture;
  if (!metrics_path.empty()) capture.emplace();
  MetricsCapture* capture_ptr = capture ? &*capture : nullptr;
  int status = 2;
  try {
    if (command == "solve")
      status = cmd_solve(config, capture_ptr);
    else if (command == "simulate")
      status = cmd_simulate(config, capture_ptr);
    else if (command == "sweep-price")
      status = cmd_sweep(config, true, capture_ptr);
    else if (command == "sweep-tax")
      status = cmd_sweep(config, false, capture_ptr);
    else if (command == "traces")
      status = cmd_traces(config, capture_ptr);
    else
      return usage();
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  if (status == 0 && capture) {
    capture->manifest.set_metrics(capture->registry);
    capture->manifest.write(metrics_path);
    std::cout << "Run manifest written to " << metrics_path << "\n";
  }
  return status;
}
