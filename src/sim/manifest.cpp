#include "sim/manifest.hpp"

#include <cstdint>

#include "util/contract.hpp"

namespace ufc::sim {

namespace {

const char* pinning_name(admm::BlockPinning pinning) {
  switch (pinning) {
    case admm::BlockPinning::None: return "none";
    case admm::BlockPinning::PinMu: return "pin_mu";
    case admm::BlockPinning::PinNu: return "pin_nu";
  }
  UFC_ENSURES(false);  // Unreachable: all enumerators handled.
}

}  // namespace

obs::JsonValue admg_options_json(const admm::AdmgOptions& options) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("rho", obs::JsonValue(options.rho));
  out.set("epsilon", obs::JsonValue(options.epsilon));
  out.set("max_iterations", obs::JsonValue(options.max_iterations));
  out.set("tolerance", obs::JsonValue(options.tolerance));
  out.set("workload_scale", obs::JsonValue(options.workload_scale));
  out.set("gaussian_back_substitution",
          obs::JsonValue(options.gaussian_back_substitution));
  out.set("pinning", obs::JsonValue(pinning_name(options.pinning)));
  out.set("record_trace", obs::JsonValue(options.record_trace));
  out.set("threads", obs::JsonValue(options.threads));
  out.set("profile_phases", obs::JsonValue(options.profile_phases));
  out.set("fallback_to_centralized",
          obs::JsonValue(options.fallback_to_centralized));
  obs::JsonValue watchdog = obs::JsonValue::object();
  watchdog.set("check_finite", obs::JsonValue(options.watchdog.check_finite));
  watchdog.set("stall_window", obs::JsonValue(options.watchdog.stall_window));
  watchdog.set("min_decrease", obs::JsonValue(options.watchdog.min_decrease));
  out.set("watchdog", std::move(watchdog));
  return out;
}

obs::JsonValue scenario_config_json(const traces::ScenarioConfig& config) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("seed", obs::JsonValue(config.seed));
  out.set("hours", obs::JsonValue(config.hours));
  out.set("front_ends", obs::JsonValue(config.front_ends));
  out.set("pue", obs::JsonValue(config.pue));
  out.set("idle_watts", obs::JsonValue(config.power.idle_watts));
  out.set("peak_watts", obs::JsonValue(config.power.peak_watts));
  out.set("server_capacity_low", obs::JsonValue(config.server_capacity_low));
  out.set("server_capacity_high", obs::JsonValue(config.server_capacity_high));
  out.set("peak_workload_fraction",
          obs::JsonValue(config.peak_workload_fraction));
  out.set("fuel_cell_price", obs::JsonValue(config.fuel_cell_price));
  out.set("carbon_tax", obs::JsonValue(config.carbon_tax));
  out.set("latency_weight", obs::JsonValue(config.latency_weight));
  return out;
}

obs::JsonValue simulator_options_json(const SimulatorOptions& options) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("solver", admg_options_json(options.admg));
  out.set("stride", obs::JsonValue(options.stride));
  out.set("outages",
          obs::JsonValue(static_cast<std::int64_t>(options.outages.size())));
  return out;
}

obs::JsonValue week_result_json(const WeekResult& week) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("strategy", obs::JsonValue(admm::to_string(week.strategy)));
  out.set("slots",
          obs::JsonValue(static_cast<std::int64_t>(week.slots.size())));
  std::int64_t iterations = 0;
  std::int64_t converged = 0;
  for (const SlotResult& slot : week.slots) {
    iterations += slot.iterations;
    if (slot.converged) ++converged;
  }
  out.set("iterations", obs::JsonValue(iterations));
  out.set("converged_slots", obs::JsonValue(converged));
  out.set("total_ufc", obs::JsonValue(week.total_ufc()));
  out.set("total_energy_cost", obs::JsonValue(week.total_energy_cost()));
  out.set("total_carbon_cost", obs::JsonValue(week.total_carbon_cost()));
  out.set("total_carbon_tons", obs::JsonValue(week.total_carbon_tons()));
  out.set("average_latency_ms", obs::JsonValue(week.average_latency_ms()));
  out.set("average_utilization", obs::JsonValue(week.average_utilization()));
  return out;
}

obs::JsonValue sweep_points_json(std::span<const SweepPoint> points) {
  obs::JsonValue out = obs::JsonValue::array();
  for (const SweepPoint& point : points) {
    obs::JsonValue entry = obs::JsonValue::object();
    entry.set("parameter", obs::JsonValue(point.parameter));
    entry.set("avg_improvement_pct",
              obs::JsonValue(point.avg_improvement_pct));
    entry.set("avg_utilization", obs::JsonValue(point.avg_utilization));
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace ufc::sim
