#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "admm/admg.hpp"
#include "admm/blocks.hpp"
#include "ctrl/stream.hpp"
#include "math/projections.hpp"
#include "net/runtime.hpp"
#include "net/supervisor.hpp"
#include "opt/kkt.hpp"
#include "sim/session.hpp"
#include "sim/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ufc::Mat;
using ufc::Vec;
using ufc::admm::AdmgOptions;
using ufc::admm::AdmgSolver;

constexpr int kHours = 168;

/// The problems and options a workload's engine, block and math probes
/// replay: a capped prefix of the seeded 256 x 32 solve for scale_solve,
/// full Hybrid solves of every 8th paper hour otherwise.
struct Family {
  std::vector<ufc::UfcProblem> problems;
  AdmgOptions options;
  int max_replay_steps = 0;
};

Family family_for(const std::string& workload, std::uint64_t seed) {
  Family family;
  if (workload == "scale_solve") {
    family.problems.push_back(scale_instance(seed));
    family.options.tolerance = 3e-3;
    family.options.threads = 2;
    family.options.record_trace = false;
    family.max_replay_steps = 24;
  } else {
    const auto scenario = paper_scenario(seed);
    for (int hour = 0; hour < kHours; hour += 8)
      family.problems.push_back(scenario.problem_at(hour));
    family.options = ufc::sim::SimulatorOptions{}.admg;
    family.max_replay_steps = family.options.max_iterations;
  }
  family.options.warn_on_unconverged = false;
  return family;
}

/// Sums the per-phase profile of every observed iteration.
class PhaseTotals final : public ufc::admm::IterationObserver {
 public:
  void on_iteration(const ufc::admm::IterationSample& sample) override {
    if (!sample.has_phases) return;
    totals.lambda_pass_seconds += sample.phases.lambda_pass_seconds;
    totals.prediction_seconds += sample.phases.prediction_seconds;
    totals.correction_seconds += sample.phases.correction_seconds;
    totals.gate_seconds += sample.phases.gate_seconds;
  }
  ufc::admm::PhaseProfile totals;
};

// ---------------------------------------------------------------------------
// admm engine: step time while replaying each solve step by step, and the
// phase split of the same solves from the profile_phases seam.

void probe_engine(const Family& family, Result& result) {
  PhaseTotals phases;
  std::vector<double> step_us;
  for (const auto& problem : family.problems) {
    AdmgOptions profiled = family.options;
    profiled.observer = &phases;
    profiled.profile_phases = true;
    profiled.max_iterations =
        std::min(profiled.max_iterations, family.max_replay_steps);
    const int steps = AdmgSolver(problem, profiled).solve().iterations;

    AdmgSolver replay(problem, family.options);
    for (int k = 0; k < steps; ++k)
      step_us.push_back(1e6 * time_seconds([&] { replay.step(); }));
  }
  result.metric("engine.step_us", median(step_us), "us");
  const double total = phases.totals.total_seconds();
  result.metric("engine.phase.lambda_pass",
                phases.totals.lambda_pass_seconds / total, "ratio");
  result.metric("engine.phase.predict",
                phases.totals.prediction_seconds / total, "ratio");
  result.metric("engine.phase.correct",
                phases.totals.correction_seconds / total, "ratio");
  result.metric("engine.phase.gate", phases.totals.gate_seconds / total,
                "ratio");
}

// ---------------------------------------------------------------------------
// admm blocks and math: each block solver timed on inputs captured from a
// live solver's accessors halfway through a solve.

/// Objective gradient of the lambda sub-problem (eq. 17) at x:
/// -w u'(l) L_j - varphi_j + rho (x_j - a_j), l = average latency of x.
Vec lambda_block_gradient(const ufc::UfcProblem& problem, std::size_t i,
                          const Vec& a, const Vec& varphi, double rho,
                          const Vec& x) {
  const double slope = problem.utility->derivative(
      problem.average_latency_s(i, x));
  Vec g(x.size());
  for (std::size_t j = 0; j < x.size(); ++j)
    g[j] = -problem.latency_weight * slope * problem.latency_s(i, j) -
           varphi[j] + rho * (x[j] - a[j]);
  return g;
}

void probe_blocks(const Family& family, Result& result) {
  const auto& source = family.problems[family.problems.size() / 2];
  AdmgSolver solver(source, family.options);
  for (int k = 0; k < std::min(10, family.max_replay_steps / 2); ++k)
    solver.step();

  const ufc::UfcProblem& problem = solver.problem();  // Normalized units.
  const auto& inner = solver.options().inner;
  const double rho = solver.options().rho;
  const std::size_t m = problem.num_front_ends();
  const std::size_t n = problem.num_datacenters();
  const Mat& lambda = solver.lambda();
  const Mat& a = solver.a();
  const Mat& varphi = solver.varphi();
  std::vector<Vec> lambda_cols(n, Vec(m));
  std::vector<Vec> varphi_cols(n, Vec(m));
  std::vector<Vec> a_cols(n, Vec(m));
  for (std::size_t j = 0; j < n; ++j) {
    lambda.col_into(j, lambda_cols[j]);
    varphi.col_into(j, varphi_cols[j]);
    a.col_into(j, a_cols[j]);
  }
  ufc::admm::BlockWorkspace ws;
  constexpr int kRounds = 15;
  const auto calls_for = [](std::size_t per_sweep, int target) {
    return std::max<int>(static_cast<int>(per_sweep), target);
  };

  // lambda block, one per front-end; also the KKT residual of its outputs.
  std::vector<ufc::admm::LambdaBlockInputs> lambda_in(m);
  for (std::size_t i = 0; i < m; ++i) {
    auto& in = lambda_in[i];
    in.arrival = problem.arrivals[i];
    in.latency_row = problem.latency_s.row_span(i);
    in.a_row = a.row_span(i);
    in.varphi_row = varphi.row_span(i);
    in.rho = rho;
    in.latency_weight = problem.latency_weight;
    in.utility = problem.utility.get();
  }
  Vec out(std::max(m, n));
  std::size_t row = 0;
  result.metric(
      "blocks.lambda_us",
      median_us_per_call(
          [&] {
            ufc::admm::solve_lambda_block_into(
                lambda_in[row], lambda.row_span(row),
                out.span().subspan(0, n), ws, inner);
            row = (row + 1) % m;
          },
          calls_for(m, 400), kRounds),
      "us");
  double kkt = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    if (problem.arrivals[i] <= 0.0) continue;
    Vec x(n);
    ufc::admm::solve_lambda_block_into(lambda_in[i], lambda.row_span(i),
                                       x.span(), ws, inner);
    const Vec a_row = a.row(i);
    const Vec varphi_row = varphi.row(i);
    const double arrival = problem.arrivals[i];
    const auto check = ufc::check_first_order_optimality(
        x,
        [&](const Vec& v) {
          return lambda_block_gradient(problem, i, a_row, varphi_row, rho, v);
        },
        [&](const Vec& v) { return ufc::project_simplex(v, arrival); },
        1.0 / rho, 1.0, arrival);
    kkt = std::max(kkt, check.residual);
  }
  result.metric("blocks.lambda_kkt_residual", kkt, "ratio");
  result.check("blocks.lambda_kkt_residual", kkt, kLambdaKktBound);

  // a block, one per datacenter.
  std::vector<ufc::admm::ABlockInputs> a_in(n);
  std::vector<ufc::admm::MuBlockInputs> mu_in(n);
  std::vector<ufc::admm::NuBlockInputs> nu_in(n);
  for (std::size_t j = 0; j < n; ++j) {
    const auto& dc = problem.datacenters[j];
    double a_sum = 0.0;
    for (const double v : a_cols[j]) a_sum += v;
    auto& a_block = a_in[j];
    a_block.alpha = problem.alpha_mw(j);
    a_block.beta = problem.beta_mw(j);
    a_block.mu = solver.mu()[j];
    a_block.nu = solver.nu()[j];
    a_block.phi = solver.phi()[j];
    a_block.varphi_col = varphi_cols[j].span();
    a_block.lambda_col = lambda_cols[j].span();
    a_block.rho = rho;
    a_block.capacity = dc.servers;
    auto& mu_block = mu_in[j];
    mu_block.alpha = a_block.alpha;
    mu_block.beta = a_block.beta;
    mu_block.a_col_sum = a_sum;
    mu_block.nu = a_block.nu;
    mu_block.phi = a_block.phi;
    mu_block.rho = rho;
    mu_block.fuel_cell_price = problem.fuel_cell_price;
    mu_block.mu_max = dc.fuel_cell_capacity_mw;
    auto& nu_block = nu_in[j];
    nu_block.alpha = a_block.alpha;
    nu_block.beta = a_block.beta;
    nu_block.a_col_sum = a_sum;
    nu_block.mu = a_block.mu;
    nu_block.phi = a_block.phi;
    nu_block.rho = rho;
    nu_block.grid_price = dc.grid_price;
    nu_block.carbon_tons_per_mwh = dc.carbon_rate / 1000.0;
    nu_block.emission_cost = dc.emission_cost.get();
  }
  std::size_t col = 0;
  result.metric(
      "blocks.a_us",
      median_us_per_call(
          [&] {
            ufc::admm::solve_a_block_into(a_in[col], a_cols[col].span(),
                                          out.span().subspan(0, m), ws, inner);
            col = (col + 1) % n;
          },
          calls_for(n, 100), kRounds),
      "us");
  // mu and nu are closed-form scalars: out-of-line library calls, so the
  // unused results are not optimized away.
  result.metric("blocks.mu_us",
                median_us_per_call(
                    [&] {
                      ufc::admm::solve_mu_block(mu_in[col]);
                      col = (col + 1) % n;
                    },
                    calls_for(n, 4000), kRounds),
                "us");
  result.metric("blocks.nu_us",
                median_us_per_call(
                    [&] {
                      ufc::admm::solve_nu_block(nu_in[col]);
                      col = (col + 1) % n;
                    },
                    calls_for(n, 4000), kRounds),
                "us");

  // Simplex projection at the two lengths the blocks project, alternating:
  // a rows (N, onto the arrival) and varphi columns (M, onto the capacity).
  std::vector<std::pair<Vec, double>> projections;
  for (std::size_t k = 0; k < std::max(m, n); ++k) {
    projections.emplace_back(a.row(k % m), problem.arrivals[k % m]);
    projections.emplace_back(varphi_cols[k % n],
                             problem.datacenters[k % n].servers);
  }
  std::size_t next = 0;
  result.metric("math.simplex_projection_us",
                median_us_per_call(
                    [&] {
                      const auto& [v, total] = projections[next];
                      ufc::project_simplex(v, total);
                      next = (next + 1) % projections.size();
                    },
                    400, kRounds),
                "us");
}

// ---------------------------------------------------------------------------
// util thread pool: step time at threads=1 over threads=2.

double median_step_us(const ufc::UfcProblem& problem, AdmgOptions options,
                      int threads, int calls, int rounds) {
  options.threads = threads;
  AdmgSolver solver(problem, options);
  for (int k = 0; k < 3; ++k) solver.step();  // Warm the workspaces.
  return median_us_per_call([&] { solver.step(); }, calls, rounds);
}

/// Median scheduler tick over the first `ticks` ticks of the tenant week.
double median_tick_ms(ufc::ctrl::MultiTenantScheduler& scheduler, int ticks) {
  std::vector<double> ms;
  for (int t = 0; t < ticks; ++t)
    ms.push_back(1e3 * time_seconds([&] { scheduler.run_tick(); }));
  return median(ms);
}

void probe_pool_and_ctrl(std::uint64_t seed, Result& result) {
  AdmgOptions large;
  large.tolerance = 3e-3;
  large.record_trace = false;
  const auto big = scale_instance(seed);
  result.metric("pool.step_speedup",
                median_step_us(big, large, 1, 1, 8) /
                    median_step_us(big, large, 2, 1, 8),
                "ratio");
  const auto paper_hour = paper_scenario(seed).problem_at(64);
  const auto small = ufc::sim::SimulatorOptions{}.admg;
  result.metric("pool.small_step_ratio",
                median_step_us(paper_hour, small, 1, 20, 15) /
                    median_step_us(paper_hour, small, 2, 20, 15),
                "ratio");

  constexpr int kTicks = 32;
  auto serial = make_tenant_scheduler(seed, 1);
  const double serial_ms = median_tick_ms(*serial, kTicks);
  auto pooled = make_tenant_scheduler(seed, 2);
  const double pooled_ms = median_tick_ms(*pooled, kTicks);
  result.metric("pool.tick_speedup", serial_ms / pooled_ms, "ratio");

  const TenantTotals totals = tenant_totals(*pooled);
  result.metric("ctrl.tick_iterations",
                static_cast<double>(totals.iterations) /
                    static_cast<double>(totals.ticks),
                "count");
  result.metric("ctrl.iterations_saved",
                static_cast<double>(totals.iterations_saved), "count");
  result.metric("ctrl.budget_exhausted",
                static_cast<double>(totals.budget_exhausted), "count");

  // apply_update on the replayed tick stream of one tenant, with the
  // budgeted warm re-solve between updates.
  ufc::ctrl::ScenarioTickSource source(paper_scenario(seed));
  AdmgOptions tenant = small;
  tenant.warn_on_unconverged = false;
  AdmgSolver solver(source.base_problem(), tenant);
  std::vector<double> apply_us;
  while (auto update = source.next()) {
    apply_us.push_back(1e6 * time_seconds([&] { solver.apply_update(*update); }));
    solver.solve_budgeted(50);
  }
  result.metric("ctrl.apply_update_us", median(apply_us), "us");
}

// ---------------------------------------------------------------------------
// net: the same hours through a forked two-worker fleet and through the
// in-process message bus.

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return INFINITY;
  double diff = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k)
    diff = std::max(diff, std::abs(a[k] - b[k]));
  return diff;
}

void probe_net(std::uint64_t seed, const std::string& socket_dir,
               Result& result) {
  const auto scenario = paper_scenario(seed);
  ufc::net::SupervisorOptions fleet_options;
  fleet_options.distributed.admg = ufc::sim::SimulatorOptions{}.admg;
  fleet_options.distributed.degraded = true;
  fleet_options.processes = 2;
  fleet_options.socket_dir = socket_dir;

  // A zero-fault fleet reproduces the in-process Hybrid solve bit for bit.
  ufc::sim::SolveSession reference(ufc::admm::Strategy::Hybrid, {});
  double fleet_s = 0.0, inproc_s = 0.0, rounds = 0.0, inproc_rounds = 0.0;
  double messages = 0.0, bytes = 0.0, stale = 0.0, retransmissions = 0.0;
  double plan_diff = 0.0, iteration_diff = 0.0;
  constexpr int kSampledHours = 6;
  for (int s = 0; s < kSampledHours; ++s) {
    const int hour = static_cast<int>((seed + 28 * static_cast<std::uint64_t>(s)) % kHours);
    const auto problem = scenario.problem_at(hour);
    ufc::net::SupervisedReport fleet;
    fleet_s += time_seconds(
        [&] { fleet = ufc::net::Supervisor(problem, fleet_options).run(); });
    ufc::net::DistributedReport local;
    inproc_s += time_seconds([&] {
      local = ufc::net::DistributedAdmgRuntime(problem,
                                               fleet_options.distributed)
                  .run();
    });
    rounds += fleet.iterations;
    inproc_rounds += local.iterations;
    messages += static_cast<double>(fleet.network.messages);
    bytes += static_cast<double>(fleet.network.bytes);
    stale += static_cast<double>(fleet.stale_inputs);
    retransmissions += static_cast<double>(fleet.network.retransmissions);
    const auto hybrid = reference.solve(scenario, hour);
    plan_diff = std::max(
        {plan_diff,
         max_abs_diff(fleet.solution.lambda.raw(), hybrid.solution.lambda.raw()),
         max_abs_diff(fleet.solution.mu.raw(), hybrid.solution.mu.raw()),
         max_abs_diff(fleet.solution.nu.raw(), hybrid.solution.nu.raw())});
    iteration_diff = std::max(
        iteration_diff,
        std::abs(static_cast<double>(fleet.iterations - hybrid.iterations)));
  }
  result.metric("net.round_us", 1e6 * fleet_s / rounds, "us");
  result.metric("net.inproc_round_us", 1e6 * inproc_s / inproc_rounds, "us");
  result.metric("net.fleet_overhead_ms", 1e3 * (fleet_s - inproc_s) / kSampledHours,
                "ms");
  result.metric("net.messages_per_round", messages / rounds, "count");
  result.metric("net.bytes_per_round", bytes / rounds, "bytes");
  result.check("net.stale_inputs", stale, 0.0);
  result.check("net.retransmissions", retransmissions, 0.0);
  result.check("net.fleet_vs_inprocess_plan_diff", plan_diff, 0.0);
  result.check("net.fleet_vs_inprocess_iteration_diff", iteration_diff, 0.0);
}

}  // namespace

void run_layer_probes(const std::string& workload, std::uint64_t seed,
                      const std::string& socket_dir, Result& result) {
  // The fleet forks: run it first, before any probe has started pool threads.
  probe_net(seed, socket_dir, result);

  std::vector<double> generate_ms;
  for (int k = 0; k < 5; ++k)
    generate_ms.push_back(1e3 * time_seconds([] {
      ufc::traces::Scenario::generate(ufc::traces::ScenarioConfig{});
    }));
  result.metric("traces.scenario_generate_ms", median(generate_ms),
                "ms");
  const auto scenario = paper_scenario(seed);
  std::vector<double> problem_us;
  for (int hour = 0; hour < kHours; ++hour)
    problem_us.push_back(1e6 * time_seconds([&] { scenario.problem_at(hour); }));
  result.metric("sim.problem_at_us", median(problem_us), "us");

  const Family family = family_for(workload, seed);
  probe_engine(family, result);
  probe_blocks(family, result);
  probe_pool_and_ctrl(seed, result);
}

}  // namespace perfbench
