// The machine-readable run artifact: RunManifest, one JSON document per run
// ("ufc-run-v1") saying what was configured, what the solver did and what it
// cost. Written by the CLI (--metrics) and the examples, and validated by
// scripts/check_bench_json.py (registered in ctest).
#pragma once

#include <string>

#include "admm/solve_core.hpp"
#include "net/link_stats.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace ufc::obs {

inline constexpr const char* kRunManifestSchema = "ufc-run-v1";

/// Builder for the per-run manifest. Sections are ordered by insertion, so a
/// manifest diffs cleanly against the previous run's.
class RunManifest {
 public:
  RunManifest();  ///< Starts with {"schema": "ufc-run-v1"}.

  /// Sets a top-level section (replacing it if already present).
  void set(const std::string& key, JsonValue value);
  /// Shorthand for set("metrics", registry.to_json()).
  void set_metrics(const MetricsRegistry& registry);

  const JsonValue& json() const { return document_; }
  std::string dump() const { return document_.dump(); }
  void write(const std::string& path) const;

  /// Parses a manifest back; a wrong or missing schema marker throws
  /// ufc::ContractViolation.
  static RunManifest read(const std::string& path);

 private:
  JsonValue document_;
};

/// The solver result core as a JSON section: iterations, convergence,
/// residuals, watchdog verdict and the UFC breakdown. The trace is
/// summarized by its length, not embedded (traces go to CSV).
JsonValue solve_core_json(const admm::SolveCore& core);

/// Bus traffic counters as a JSON section.
JsonValue link_stats_json(const net::LinkStats& stats);

}  // namespace ufc::obs
