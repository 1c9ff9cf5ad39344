#include "obs/metrics_observer.hpp"

#include <utility>

#include "admm/solve_core.hpp"
#include "admm/watchdog.hpp"

namespace ufc::obs {

MetricsObserver::MetricsObserver(MetricsRegistry& registry, std::string prefix)
    : registry_(registry), prefix_(std::move(prefix)) {}

void MetricsObserver::on_iteration(const admm::IterationSample& sample) {
  registry_.counter(prefix_ + ".iterations").add();
  registry_.histogram(prefix_ + ".iteration_seconds", default_time_boundaries())
      .observe(sample.wall_seconds);
  if (sample.has_phases) {
    const admm::PhaseProfile& phases = sample.phases;
    const auto& boundaries = default_time_boundaries();
    registry_.histogram(prefix_ + ".phase.lambda_pass_seconds", boundaries)
        .observe(phases.lambda_pass_seconds);
    registry_.histogram(prefix_ + ".phase.prediction_seconds", boundaries)
        .observe(phases.prediction_seconds);
    registry_.histogram(prefix_ + ".phase.correction_seconds", boundaries)
        .observe(phases.correction_seconds);
    registry_.histogram(prefix_ + ".phase.gate_seconds", boundaries)
        .observe(phases.gate_seconds);
    registry_.counter(prefix_ + ".block.lambda_probes")
        .add(phases.lambda_probes);
    registry_.counter(prefix_ + ".block.a_probes").add(phases.a_probes);
  }
}

void MetricsObserver::on_solve_end(const admm::SolveCore& core) {
  registry_.counter(prefix_ + ".solves").add();
  if (core.converged) registry_.counter(prefix_ + ".converged_solves").add();
  if (core.fallback_centralized)
    registry_.counter(prefix_ + ".fallback_solves").add();
  if (core.watchdog_verdict != admm::WatchdogVerdict::Healthy)
    registry_.counter(prefix_ + ".watchdog_trips").add();
  registry_.gauge(prefix_ + ".last.iterations")
      .set(static_cast<double>(core.iterations));
  registry_.gauge(prefix_ + ".last.balance_residual")
      .set(core.balance_residual);
  registry_.gauge(prefix_ + ".last.copy_residual").set(core.copy_residual);
  registry_.gauge(prefix_ + ".last.objective").set(core.breakdown.ufc);
}

void record_link_stats(MetricsRegistry& registry, const net::LinkStats& stats,
                       const std::string& prefix) {
  registry.counter(prefix + ".messages").add(stats.messages);
  registry.counter(prefix + ".bytes").add(stats.bytes);
  registry.counter(prefix + ".retransmissions").add(stats.retransmissions);
  registry.counter(prefix + ".delivery_failures").add(stats.delivery_failures);
  registry.counter(prefix + ".corrupted").add(stats.corrupted);
  registry.counter(prefix + ".delayed").add(stats.delayed);
  registry.counter(prefix + ".backoff_rounds").add(stats.backoff_rounds);
}

void record_counter_table(MetricsRegistry& registry,
                          const std::map<std::string, std::uint64_t>& counters,
                          const std::string& prefix) {
  for (const auto& [name, value] : counters)
    registry.counter(prefix + "." + name).add(value);
}

void record_gauge_table(MetricsRegistry& registry,
                        const std::map<std::string, double>& gauges,
                        const std::string& prefix) {
  for (const auto& [name, value] : gauges)
    registry.gauge(prefix + "." + name).set(value);
}

}  // namespace ufc::obs
