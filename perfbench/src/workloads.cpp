#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <stdexcept>

#include "admm/admg.hpp"
#include "admm/centralized.hpp"
#include "ctrl/scheduler.hpp"
#include "ctrl/stream.hpp"
#include "model/emission.hpp"
#include "model/utility.hpp"
#include "obs/metrics.hpp"
#include "sim/session.hpp"
#include "traces/scenario.hpp"
#include "util/rng.hpp"

namespace perfbench {

using ufc::admm::SolveStatus;

namespace {

constexpr int kHours = 168;
constexpr std::uint64_t kTenants = 16;

bool finite_plan(const ufc::UfcSolution& plan) {
  const auto finite = [](double v) { return std::isfinite(v); };
  return std::all_of(plan.lambda.raw().begin(), plan.lambda.raw().end(),
                     finite) &&
         std::all_of(plan.mu.begin(), plan.mu.end(), finite) &&
         std::all_of(plan.nu.begin(), plan.nu.end(), finite);
}

/// Tallies one solve into the pass: Converged counts as done, a watchdog
/// trip or a non-finite plan as failed.
void tally(PassStats& stats, const ufc::admm::SolveCore& report) {
  stats.iterations += report.iterations;
  ++stats.solves;
  if (report.status != SolveStatus::Converged) ++stats.unconverged;
  if (report.status == SolveStatus::WatchdogTripped ||
      !finite_plan(report.solution))
    ++stats.failed;
}

/// Largest relative gap between the ADM-G UFC and the centralized
/// reference solver's (the projected-subgradient default backend) on two
/// seeded hours of `scenario`, given the ADM-G UFC per hour.
double oracle_gap(const ufc::traces::Scenario& scenario, std::uint64_t seed,
                  const std::vector<double>& ufc_by_hour) {
  ufc::Rng rng(seed ^ 0x6f7261636c65ULL);
  const ufc::admm::CentralizedOptions oracle;
  double gap = 0.0;
  for (int sample = 0; sample < 2; ++sample) {
    const auto hour = static_cast<int>(rng.uniform_int(0, kHours - 1));
    const double reference =
        ufc::admm::solve_centralized(scenario.problem_at(hour), oracle)
            .objective;
    gap = std::max(gap, std::abs(ufc_by_hour[static_cast<std::size_t>(hour)] -
                                 reference) /
                            std::max(1.0, std::abs(reference)));
  }
  return gap;
}

// ---------------------------------------------------------------------------

/// The paper's §IV experiment: 3 strategies x 168 cold hourly solves.
class PaperWeek final : public Workload {
 public:
  explicit PaperWeek(std::uint64_t seed) : seed_(seed) {}

  const char* unit_span() const override { return "sim.SolveSession::solve"; }

  void setup(ufc::admm::IterationObserver* observer) override {
    scenario_.emplace(paper_scenario(seed_));
    ufc::sim::SimulatorOptions options;
    options.admg.observer = observer;
    sessions_.clear();
    for (const auto strategy : ufc::admm::kAllStrategies)
      sessions_.emplace_back(strategy, options);
  }

  PassStats run_pass(SpanRecorder* spans, SpanObserver* observer) override {
    PassStats stats;
    reports_.clear();
    reports_.reserve(3 * kHours);
    for (auto& session : sessions_) {
      for (int hour = 0; hour < kHours; ++hour) {
        const ufc::util::MonotonicTimer timer;
        {
          const ScopedSpan span(spans, unit_span());
          if (observer != nullptr) observer->set_parent(span.id());
          reports_.push_back(session.solve(*scenario_, hour));
        }
        stats.unit_seconds.push_back(timer.elapsed_seconds());
        tally(stats, reports_.back());
      }
    }
    return stats;
  }

  void check(Result& result) override {
    double residual = 0.0;
    std::vector<double> hybrid_ufc;
    for (std::size_t s = 0; s < sessions_.size(); ++s) {
      const auto strategy = sessions_[s].strategy();
      for (int hour = 0; hour < kHours; ++hour) {
        const auto& report =
            reports_[s * kHours + static_cast<std::size_t>(hour)];
        // Every 4th hour keeps the untimed check phase short.
        if (hour % 4 == 0)
          residual = std::max(
              residual, ufc::admm::routing_optimality_residual(
                            scenario_->problem_at(hour), report.solution.lambda,
                            1e-3, strategy == ufc::admm::Strategy::Grid,
                            strategy == ufc::admm::Strategy::FuelCell));
        if (strategy == ufc::admm::Strategy::Hybrid)
          hybrid_ufc.push_back(report.breakdown.ufc);
      }
    }
    result.check("optimality_residual", residual, kOptimalityResidualBound);
    result.check("oracle_gap", oracle_gap(*scenario_, seed_, hybrid_ufc),
                 kOracleGapBound);
  }

 private:
  std::uint64_t seed_;
  std::optional<ufc::traces::Scenario> scenario_;
  std::deque<ufc::sim::SolveSession> sessions_;  // Not movable.
  std::vector<ufc::admm::AdmgReport> reports_;
};

// ---------------------------------------------------------------------------

/// One cold library-default solve of a seeded 256 x 32 instance.
class ScaleSolve final : public Workload {
 public:
  explicit ScaleSolve(std::uint64_t seed) : seed_(seed) {}

  const char* unit_span() const override { return "admm.solve_admg"; }

  void setup(ufc::admm::IterationObserver* observer) override {
    problem_ = scale_instance(seed_);
    options_ = ufc::admm::AdmgOptions{};
    options_.tolerance = 3e-3;
    options_.threads = 2;
    options_.record_trace = false;
    options_.observer = observer;
  }

  PassStats run_pass(SpanRecorder* spans, SpanObserver* observer) override {
    PassStats stats;
    const ufc::util::MonotonicTimer timer;
    {
      const ScopedSpan span(spans, unit_span());
      if (observer != nullptr) observer->set_parent(span.id());
      report_ = ufc::admm::solve_admg(problem_, options_);
    }
    stats.unit_seconds.push_back(timer.elapsed_seconds());
    tally(stats, report_);
    return stats;
  }

  void check(Result& result) override {
    result.check("optimality_residual",
                 ufc::admm::routing_optimality_residual(
                     problem_, report_.solution.lambda),
                 kOptimalityResidualBound);
  }

 private:
  std::uint64_t seed_;
  ufc::UfcProblem problem_;
  ufc::admm::AdmgOptions options_;
  ufc::admm::AdmgReport report_;
};

// ---------------------------------------------------------------------------

/// 16 tenants replaying seeded paper weeks through the multi-tenant
/// scheduler: warm, budgeted re-solves behind apply_update.
class TenantTicks final : public Workload {
 public:
  explicit TenantTicks(std::uint64_t seed) : seed_(seed) {}

  const char* unit_span() const override {
    return "ctrl.MultiTenantScheduler::run_tick";
  }

  void setup(ufc::admm::IterationObserver* observer) override {
    scheduler_ = make_tenant_scheduler(seed_, 2, observer);
  }

  PassStats run_pass(SpanRecorder* spans, SpanObserver* observer) override {
    PassStats stats;
    for (;;) {
      const ufc::util::MonotonicTimer timer;
      bool ran = false;
      {
        const ScopedSpan span(spans, unit_span());
        if (observer != nullptr) observer->set_parent(span.id());
        ran = scheduler_->run_tick();
      }
      if (!ran) break;
      stats.unit_seconds.push_back(timer.elapsed_seconds());
    }
    const TenantTotals totals = tenant_totals(*scheduler_);
    stats.iterations = totals.iterations;
    stats.solves = totals.ticks;
    stats.unconverged = totals.budget_exhausted;
    for (std::size_t k = 0; k < scheduler_->tenant_count(); ++k)
      if (!scheduler_->tenant_solver(k).iterate_finite()) ++stats.failed;
    return stats;
  }

  void check(Result& result) override {
    // Every tenant that ended the week converged must hold an optimal plan
    // for its final hour.
    const std::size_t tenants = scheduler_->tenant_count();
    double residual = 0.0;
    int certified = 0;
    for (std::size_t k = 0; k < tenants; ++k) {
      const auto& solver = scheduler_->tenant_solver(k);
      if (!solver.is_converged()) continue;
      ++certified;
      ufc::Mat lambda = solver.lambda();
      lambda *= solver.workload_scale();
      residual = std::max(residual,
                          ufc::admm::routing_optimality_residual(
                              paper_scenario(seed_, 42 + k).problem_at(kHours - 1),
                              lambda));
    }
    result.check("optimality_residual", residual, kOptimalityResidualBound);
    // ...and at least half of them must have, or that check says little.
    result.check("tenants_uncertified_at_week_end",
                 static_cast<double>(tenants - certified),
                 static_cast<double>(tenants) / 2);
  }

 private:
  std::uint64_t seed_;
  std::unique_ptr<ufc::ctrl::MultiTenantScheduler> scheduler_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper_week", "scale_solve", "tenant_ticks"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "paper_week") return std::make_unique<PaperWeek>(seed);
  if (name == "scale_solve") return std::make_unique<ScaleSolve>(seed);
  if (name == "tenant_ticks") return std::make_unique<TenantTicks>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

namespace {

/// Fisher-Yates permutation of 0..n-1.
std::vector<std::size_t> permutation(ufc::Rng& rng, std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t k = 0; k < n; ++k) order[k] = k;
  for (std::size_t k = n - 1; k > 0; --k)
    std::swap(order[k], order[static_cast<std::size_t>(rng.uniform_int(
                           0, static_cast<std::int64_t>(k)))]);
  return order;
}

}  // namespace

ufc::traces::Scenario paper_scenario(std::uint64_t seed,
                                     std::uint64_t base_seed) {
  ufc::traces::ScenarioConfig config;
  config.seed = base_seed;
  const auto base = ufc::traces::Scenario::generate(config);
  const std::size_t m = base.num_front_ends();
  const std::size_t n = base.num_datacenters();
  const auto hours = static_cast<std::size_t>(base.hours());
  ufc::Rng relabel(seed);
  const auto rows = permutation(relabel, m);
  const auto cols = permutation(relabel, n);

  ufc::traces::ExternalTraceData data;
  data.config = base.config();
  data.arrivals = ufc::Mat(hours, m);
  data.prices = ufc::Mat(hours, n);
  data.carbon_rates = ufc::Mat(hours, n);
  data.latency_s = ufc::Mat(m, n);
  for (std::size_t j = 0; j < n; ++j) {
    data.datacenter_names.push_back(base.datacenter_names()[cols[j]]);
    data.servers.push_back(base.servers()[cols[j]]);
  }
  for (std::size_t t = 0; t < hours; ++t) {
    for (std::size_t i = 0; i < m; ++i)
      data.arrivals(t, i) = base.arrivals()(t, rows[i]);
    for (std::size_t j = 0; j < n; ++j) {
      data.prices(t, j) = base.prices()(t, cols[j]);
      data.carbon_rates(t, j) = base.carbon_rates()(t, cols[j]);
    }
  }
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      data.latency_s(i, j) = base.latency_s()(rows[i], cols[j]);
  return ufc::traces::Scenario::from_data(std::move(data));
}

std::unique_ptr<ufc::ctrl::MultiTenantScheduler> make_tenant_scheduler(
    std::uint64_t seed, int threads, ufc::admm::IterationObserver* observer) {
  ufc::ctrl::SchedulerOptions options;
  options.iteration_pool_per_tick = 400;
  options.quantum = 50;
  options.threads = threads;
  options.admg = ufc::sim::SimulatorOptions{}.admg;
  options.admg.observer = observer;
  auto scheduler = std::make_unique<ufc::ctrl::MultiTenantScheduler>(options);
  for (std::uint64_t k = 0; k < kTenants; ++k)
    scheduler->add_tenant("t" + std::to_string(k),
                          std::make_unique<ufc::ctrl::ScenarioTickSource>(
                              paper_scenario(seed, 42 + k)));
  return scheduler;
}

TenantTotals tenant_totals(const ufc::ctrl::MultiTenantScheduler& scheduler) {
  ufc::obs::MetricsRegistry registry;
  scheduler.record_metrics(registry);
  TenantTotals totals;
  for (std::size_t k = 0; k < scheduler.tenant_count(); ++k) {
    const std::string prefix =
        "ctrl.tenant." + scheduler.tenant_name(k) + ".";
    const auto value = [&](const char* field) {
      const auto* counter = registry.find_counter(prefix + field);
      return counter == nullptr ? std::int64_t{0}
                                : static_cast<std::int64_t>(counter->value());
    };
    totals.ticks += value("ticks");
    totals.iterations += value("iterations");
    totals.iterations_saved += value("iterations_saved");
    totals.budget_exhausted += value("budget_exhausted");
  }
  return totals;
}

ufc::UfcProblem scale_instance(std::uint64_t seed) {
  // bench_parallel_scaling's generator seeds (1234 and 7), then the
  // relabeling: fresh instances per seed differ by up to 1.7x in
  // iterations.
  constexpr std::size_t m = 256;
  constexpr std::size_t n = 32;
  ufc::Rng rng(1234);
  ufc::UfcProblem base;
  base.power = ufc::ServerPowerModel{100.0, 200.0};
  base.fuel_cell_price = 80.0;
  base.latency_weight = 10.0;
  base.utility = std::make_shared<ufc::QuadraticUtility>();
  double capacity = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    ufc::DatacenterSpec dc;
    dc.name = "dc" + std::to_string(j);
    dc.servers = rng.uniform(1.7e4, 2.3e4);
    dc.grid_price = rng.uniform(15.0, 120.0);
    dc.carbon_rate = rng.uniform(200.0, 900.0);
    dc.fuel_cell_capacity_mw = dc.servers * 200.0 * 1.2 / 1e6;
    dc.emission_cost = std::make_shared<ufc::AffineCarbonTax>(25.0);
    capacity += dc.servers;
    base.datacenters.push_back(std::move(dc));
  }
  ufc::Rng shares_rng(7);
  base.arrivals = ufc::normal_shares(shares_rng, static_cast<int>(m),
                                     0.6 * capacity, 0.35);
  base.latency_s = ufc::Mat(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      base.latency_s(i, j) = rng.uniform(0.002, 0.045);

  ufc::Rng relabel(seed);
  const auto rows = permutation(relabel, m);
  const auto cols = permutation(relabel, n);
  ufc::UfcProblem p = base;
  for (std::size_t i = 0; i < m; ++i) {
    p.arrivals[i] = base.arrivals[rows[i]];
    for (std::size_t j = 0; j < n; ++j)
      p.latency_s(i, j) = base.latency_s(rows[i], cols[j]);
  }
  for (std::size_t j = 0; j < n; ++j) p.datacenters[j] = base.datacenters[cols[j]];
  return p;
}

}  // namespace perfbench
