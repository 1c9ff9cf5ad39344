// Bridges the engine's IterationObserver seam into a MetricsRegistry.
//
// MetricsObserver is pure telemetry: it reads samples and report cores and
// writes instruments — it can never influence the iterate, so solves with it
// attached stay bit-identical (pinned by tests/admm/test_engine.cpp).
//
// src/obs is lint-banned from including solver-driver headers; everything
// here depends only on the telemetry seam (admm/telemetry.hpp), the shared
// result types (admm/solve_core.hpp) and the traffic counters
// (net/link_stats.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "admm/telemetry.hpp"
#include "net/link_stats.hpp"
#include "obs/metrics.hpp"

namespace ufc::obs {

/// Records every iteration and solve into a registry under `prefix`:
///
///   counters    <prefix>.iterations, <prefix>.solves,
///               <prefix>.converged_solves, <prefix>.fallback_solves,
///               <prefix>.watchdog_trips and, when phase profiling is on
///               (AdmgOptions::profile_phases), the block solvers' root
///               probes <prefix>.block.{lambda,a}_probes
///   gauges      <prefix>.last.iterations, <prefix>.last.balance_residual,
///               <prefix>.last.copy_residual, <prefix>.last.objective
///   histograms  <prefix>.iteration_seconds and, with phase profiling,
///               <prefix>.phase.{lambda_pass,prediction,correction,
///               gate}_seconds — all on default_time_boundaries(), so
///               same-name registries merge.
class MetricsObserver : public admm::IterationObserver {
 public:
  /// `registry` is non-owning and must outlive the observer.
  explicit MetricsObserver(MetricsRegistry& registry,
                           std::string prefix = "solver");

  void on_iteration(const admm::IterationSample& sample) override;
  void on_solve_end(const admm::SolveCore& core) override;

  const std::string& prefix() const { return prefix_; }

 private:
  MetricsRegistry& registry_;
  std::string prefix_;
};

/// Records bus traffic counters under `prefix`: <prefix>.messages, .bytes,
/// .retransmissions, .delivery_failures, .corrupted, .delayed,
/// .backoff_rounds.
void record_link_stats(MetricsRegistry& registry, const net::LinkStats& stats,
                       const std::string& prefix = "net");

/// Records a plain name->value counter table under `prefix`. The socket
/// supervisor ships per-worker measurement tables as plain maps (the net
/// layer cannot depend on obs); merging them here in worker-index order
/// keeps multi-process metrics deterministic.
void record_counter_table(MetricsRegistry& registry,
                          const std::map<std::string, std::uint64_t>& counters,
                          const std::string& prefix);

/// Gauge-table sibling of record_counter_table (last writer wins, so merge
/// order is the caller's contract — workers merge in index order).
void record_gauge_table(MetricsRegistry& registry,
                        const std::map<std::string, double>& gauges,
                        const std::string& prefix);

}  // namespace ufc::obs
