#include "obs/manifest.hpp"

#include <utility>

#include "admm/watchdog.hpp"
#include "util/contract.hpp"

namespace ufc::obs {

namespace {

const char* verdict_name(admm::WatchdogVerdict verdict) {
  switch (verdict) {
    case admm::WatchdogVerdict::Healthy: return "healthy";
    case admm::WatchdogVerdict::NonFinite: return "non_finite";
    case admm::WatchdogVerdict::Stalled: return "stalled";
  }
  UFC_ENSURES(false);  // Unreachable: all enumerators handled.
}

}  // namespace

RunManifest::RunManifest() : document_(JsonValue::object()) {
  document_.set("schema", JsonValue(kRunManifestSchema));
}

void RunManifest::set(const std::string& key, JsonValue value) {
  document_.set(key, std::move(value));
}

void RunManifest::set_metrics(const MetricsRegistry& registry) {
  document_.set("metrics", registry.to_json());
}

void RunManifest::write(const std::string& path) const {
  write_json_file(path, document_);
}

RunManifest RunManifest::read(const std::string& path) {
  JsonValue document = read_json_file(path);
  const JsonValue* schema = document.find("schema");
  UFC_EXPECTS(schema != nullptr && schema->is_string() &&
              schema->as_string() == kRunManifestSchema);
  RunManifest manifest;
  manifest.document_ = std::move(document);
  return manifest;
}

JsonValue solve_core_json(const admm::SolveCore& core) {
  JsonValue out = JsonValue::object();
  out.set("iterations", JsonValue(core.iterations));
  out.set("converged", JsonValue(core.converged));
  out.set("status", JsonValue(admm::to_string(core.status)));
  out.set("balance_residual", JsonValue(core.balance_residual));
  out.set("copy_residual", JsonValue(core.copy_residual));
  out.set("watchdog_verdict", JsonValue(verdict_name(core.watchdog_verdict)));
  out.set("fallback_centralized", JsonValue(core.fallback_centralized));
  out.set("trace_length",
          JsonValue(static_cast<std::int64_t>(core.trace.objective.size())));
  JsonValue breakdown = JsonValue::object();
  breakdown.set("ufc", JsonValue(core.breakdown.ufc));
  breakdown.set("utility", JsonValue(core.breakdown.utility));
  breakdown.set("energy_cost", JsonValue(core.breakdown.energy_cost));
  breakdown.set("carbon_cost", JsonValue(core.breakdown.carbon_cost));
  breakdown.set("carbon_tons", JsonValue(core.breakdown.carbon_tons));
  breakdown.set("avg_latency_ms", JsonValue(core.breakdown.avg_latency_ms));
  breakdown.set("fuel_cell_mwh", JsonValue(core.breakdown.fuel_cell_mwh));
  breakdown.set("grid_mwh", JsonValue(core.breakdown.grid_mwh));
  breakdown.set("utilization", JsonValue(core.breakdown.utilization));
  out.set("breakdown", std::move(breakdown));
  return out;
}

JsonValue link_stats_json(const net::LinkStats& stats) {
  JsonValue out = JsonValue::object();
  out.set("messages", JsonValue(stats.messages));
  out.set("bytes", JsonValue(stats.bytes));
  out.set("retransmissions", JsonValue(stats.retransmissions));
  out.set("delivery_failures", JsonValue(stats.delivery_failures));
  out.set("corrupted", JsonValue(stats.corrupted));
  out.set("delayed", JsonValue(stats.delayed));
  out.set("backoff_rounds", JsonValue(stats.backoff_rounds));
  return out;
}

}  // namespace ufc::obs
