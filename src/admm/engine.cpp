#include "admm/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "admm/centralized.hpp"
#include "util/clock.hpp"
#include "util/contract.hpp"
#include "util/logging.hpp"

namespace ufc::admm {

double natural_workload_scale(const UfcProblem& problem) {
  UFC_EXPECTS(problem.num_front_ends() > 0);
  const double mean_arrival =
      problem.total_arrivals() /
      static_cast<double>(problem.num_front_ends());
  return std::max(1.0, mean_arrival);
}

double workload_scale_for(const UfcProblem& problem,
                          const AdmgOptions& options) {
  return options.workload_scale > 0.0 ? options.workload_scale
                                      : natural_workload_scale(problem);
}

UfcProblem scale_workload_units(const UfcProblem& problem, double sigma) {
  UFC_EXPECTS(sigma > 0.0);
  UfcProblem scaled = problem;
  scaled.power.idle_watts *= sigma;
  scaled.power.peak_watts *= sigma;
  scaled.latency_weight *= sigma;
  for (auto& dc : scaled.datacenters) {
    dc.servers /= sigma;
    if (dc.power_override) {
      dc.power_override->idle_watts *= sigma;
      dc.power_override->peak_watts *= sigma;
    }
  }
  for (auto& a : scaled.arrivals) a /= sigma;
  return scaled;
}

StepRule step_rule(const UfcProblem& normalized_problem,
                   const AdmgOptions& options) {
  UFC_EXPECTS(options.rho > 0.0);
  UFC_EXPECTS(options.epsilon > 0.5 && options.epsilon <= 1.0);
  UFC_EXPECTS(options.max_iterations > 0);
  UFC_EXPECTS(options.tolerance > 0.0);
  UFC_EXPECTS(options.threads >= 0);
  StepRule rule;
  rule.rho = options.rho;
  rule.gbs = options.gaussian_back_substitution;
  rule.epsilon = rule.gbs ? options.epsilon : 1.0;
  rule.pin_mu = options.pinning == BlockPinning::PinMu;
  rule.pin_nu = options.pinning == BlockPinning::PinNu;
  if (rule.pin_nu) {
    // nu = 0 requires fuel cells able to carry the peak demand at every
    // datacenter (the paper's "completely powered by fuel cells" premise).
    const auto& dcs = normalized_problem.datacenters;
    for (std::size_t j = 0; j < dcs.size(); ++j) {
      const double peak = normalized_problem.demand_mw(j, dcs[j].servers);
      UFC_EXPECTS(dcs[j].fuel_cell_capacity_mw >= peak - 1e-9);
    }
  }
  return rule;
}

ResidualScales residual_scales(const UfcProblem& normalized_problem) {
  // The copy residual lives in "servers routed" units, the balance residual
  // in MW. Normalizing by the largest arrival / peak demand makes the
  // convergence test dimensionless.
  ResidualScales scales;
  for (double a : normalized_problem.arrivals)
    scales.copy = std::max(scales.copy, a);
  const auto& dcs = normalized_problem.datacenters;
  for (std::size_t j = 0; j < dcs.size(); ++j)
    scales.balance = std::max(scales.balance,
                              normalized_problem.demand_mw(j, dcs[j].servers));
  return scales;
}

DatacenterData datacenter_data(const UfcProblem& normalized_problem,
                               std::size_t j) {
  UFC_EXPECTS(j < normalized_problem.num_datacenters());
  const auto& dc = normalized_problem.datacenters[j];
  return {.alpha_mw = normalized_problem.alpha_mw(j),
          .beta_mw = normalized_problem.beta_mw(j),
          .capacity_servers = dc.servers,
          .fuel_cell_capacity_mw = dc.fuel_cell_capacity_mw,
          .fuel_cell_price = normalized_problem.fuel_cell_price,
          .grid_price = dc.grid_price,
          .carbon_tons_per_mwh = dc.carbon_rate / 1000.0,
          .emission_cost = dc.emission_cost.get()};
}

// ---------------------------------------------------------------------------
// Gaussian back substitution (paper step 2, backward order). Duals first
// (identity row of G), then a, then nu and mu with the cross-block
// correction terms derived from (K_i^T K_i)^{-1} K_i^T K_j for our
// constraint matrices (see DESIGN.md). With gbs=false: plain multi-block
// ADMM (ablation), accept the prediction unchanged.

void correct_varphi_block(std::span<double> varphi,
                          std::span<const double> a_tilde,
                          std::span<const double> lambda_tilde,
                          const StepRule& rule) {
  UFC_EXPECTS(a_tilde.size() == varphi.size() &&
              lambda_tilde.size() == varphi.size());
  const double eps = rule.epsilon;
  for (std::size_t i = 0; i < varphi.size(); ++i) {
    const double varphi_tilde =
        update_varphi(varphi[i], rule.rho, a_tilde[i], lambda_tilde[i]);
    if (rule.gbs) {
      varphi[i] += eps * (varphi_tilde - varphi[i]);
    } else {
      varphi[i] = varphi_tilde;
    }
  }
}

ABlockCorrection correct_a_block(std::span<double> a,
                                 std::span<const double> a_tilde,
                                 const StepRule& rule) {
  UFC_EXPECTS(a_tilde.size() == a.size());
  ABlockCorrection out;
  if (!rule.gbs) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      out.max_change = std::max(out.max_change, std::abs(a_tilde[i] - a[i]));
      a[i] = a_tilde[i];
    }
    return out;
  }
  const double eps = rule.epsilon;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double a_old = a[i];
    const double delta = eps * (a_tilde[i] - a_old);
    a[i] = a_old + delta;
    out.delta_sum += delta;
    out.max_change = std::max(out.max_change, std::abs(a[i] - a_old));
  }
  return out;
}

namespace {

/// Corrects one datacenter's phi, nu and mu (dual first, then the sources).
/// `delta_sum` is ABlockCorrection::delta_sum of the same column. Returns
/// the largest nu/mu movement.
double correct_sources(double& phi, double& nu, double& mu,
                       const DatacenterPrediction& tilde, double beta,
                       double delta_sum, const StepRule& rule) {
  const double eps = rule.epsilon;
  UFC_EXPECTS(eps > 0.0 && eps <= 1.0);
  double change = 0.0;
  if (!rule.gbs) {
    phi = tilde.phi;
    change = std::max(change, std::abs(tilde.nu - nu));
    nu = tilde.nu;
    change = std::max(change, std::abs(tilde.mu - mu));
    mu = tilde.mu;
    return change;
  }
  phi += eps * (tilde.phi - phi);
  const double nu_old = nu;
  if (!rule.pin_nu) {
    nu += eps * (tilde.nu - nu) + beta * delta_sum;
    change = std::max(change, std::abs(nu - nu_old));
  }
  if (!rule.pin_mu) {
    const double mu_old = mu;
    double correction = eps * (tilde.mu - mu);
    if (!rule.pin_nu) correction -= (nu - nu_old);
    correction += beta * delta_sum;
    mu = mu_old + correction;
    change = std::max(change, std::abs(mu - mu_old));
  }
  return change;
}

}  // namespace

DatacenterPrediction predict_datacenter(
    const DatacenterData& dc, const StepRule& rule, std::span<const double> a,
    double nu, double phi, std::span<const double> lambda_tilde,
    std::span<const double> varphi, std::span<double> a_tilde,
    BlockWorkspace& ws) {
  // Increasing-i sums: bitwise equal to Mat::col_sum and to sum(Vec).
  double a_sum = 0.0;
  for (const double value : a) a_sum += value;
  DatacenterPrediction tilde;

  // Procedure 2: mu block (uses a^k, nu^k, phi^k).
  if (!rule.pin_mu)
    tilde.mu = solve_mu_block({.alpha = dc.alpha_mw,
                               .beta = dc.beta_mw,
                               .a_col_sum = a_sum,
                               .nu = nu,
                               .phi = phi,
                               .rho = rule.rho,
                               .fuel_cell_price = dc.fuel_cell_price,
                               .mu_max = dc.fuel_cell_capacity_mw});

  // Procedure 3: nu block (uses a^k, mu~, phi^k).
  if (!rule.pin_nu)
    tilde.nu = solve_nu_block({.alpha = dc.alpha_mw,
                               .beta = dc.beta_mw,
                               .a_col_sum = a_sum,
                               .mu = tilde.mu,
                               .phi = phi,
                               .rho = rule.rho,
                               .grid_price = dc.grid_price,
                               .carbon_tons_per_mwh = dc.carbon_tons_per_mwh,
                               .emission_cost = dc.emission_cost});

  // Procedure 4: a block (uses lambda~, mu~, nu~, phi^k, varphi^k), its
  // root search starting at a^k's column sum.
  tilde.a_probes = solve_a_block_into({.alpha = dc.alpha_mw,
                                       .beta = dc.beta_mw,
                                       .mu = tilde.mu,
                                       .nu = tilde.nu,
                                       .phi = phi,
                                       .varphi_col = varphi,
                                       .lambda_col = lambda_tilde,
                                       .rho = rule.rho,
                                       .capacity = dc.capacity_servers},
                                      a, a_tilde, ws);

  // Procedure 5: the local dual prediction (uses a~, mu~, nu~).
  double a_tilde_sum = 0.0;
  for (const double value : a_tilde) a_tilde_sum += value;
  tilde.phi = update_phi(phi, rule.rho, dc.alpha_mw, dc.beta_mw, a_tilde_sum,
                         tilde.mu, tilde.nu);
  return tilde;
}

double correct_datacenter(const DatacenterData& dc, const StepRule& rule,
                          const DatacenterPrediction& predicted,
                          std::span<const double> a_tilde,
                          std::span<double> a, double& mu, double& nu,
                          double& phi) {
  const ABlockCorrection corr = correct_a_block(a, a_tilde, rule);
  return std::max(corr.max_change,
                  correct_sources(phi, nu, mu, predicted, dc.beta_mw,
                                  corr.delta_sum, rule));
}

AdmgEngine::AdmgEngine(const AdmgOptions& options) : options_(options) {
  UFC_EXPECTS(options_.max_iterations > 0);
  UFC_EXPECTS(options_.tolerance > 0.0);
  if (options_.acceleration == Acceleration::Anderson) anderson_.emplace();
}

SolveCore AdmgEngine::solve(BlockExecutor& executor, int first_iteration) {
  UFC_EXPECTS(first_iteration >= 0);
  SolveCore core;
  SolverWatchdog watchdog(options_.watchdog);
  double balance = 0.0;
  double copy = 0.0;
  // A poisoned warm start (e.g. a checkpoint whose payload was corrupted
  // after framing) must be caught before step() feeds NaN into the block
  // solvers, whose own contracts would throw instead of degrading.
  if (options_.watchdog.check_finite && !executor.iterate_finite()) {
    watchdog.observe(0.0, 0.0, false);
    core.watchdog_verdict = watchdog.verdict();
  }
  const bool sampling = options_.record_trace || options_.observer != nullptr;
  // Phase profiles ride on observer samples, so profiling without an
  // observer would only pay clock reads for data nobody sees.
  const bool profiling =
      options_.profile_phases && options_.observer != nullptr;
  executor.set_phase_profiling(profiling);
  // Anderson needs flat-iterate access: begin() rejects a zero-size iterate,
  // so executors without the seam (the message-passing runtime) fail up
  // front rather than silently running the plain scheme. Without
  // acceleration the seam is never touched — the bit-identity fast path.
  const bool accelerating = anderson_.has_value();
  if (accelerating) {
    const std::size_t size = executor.iterate_size();
    anderson_->begin(size);
    previous_.resize(size);
    plain_.resize(size);
    candidate_.resize(size);
  }
  const int first = first_iteration;
  for (int k = first;
       !watchdog.tripped() && k < first + options_.max_iterations; ++k) {
    if (accelerating) executor.copy_iterate(previous_);
    double wall_seconds = 0.0;
    if (options_.observer != nullptr) {
      const auto started = util::monotonic_now();
      executor.step(k);
      wall_seconds = util::seconds_between(started, util::monotonic_now());
    } else {
      executor.step(k);
    }
    ++core.iterations;
    if (executor.topology_changed()) {
      // The problem shape changed under us (degraded-mode capacity
      // removal): residual history is no longer comparable, so restart the
      // watchdog and skip this round's convergence test.
      watchdog.reset();
      continue;
    }
    // One residual evaluation per iteration, shared by the trace, the
    // observer and the convergence test (each is an O(MN) pass). The gate
    // phase timer covers these passes — they are the per-iteration cost the
    // convergence test imposes on top of the step itself.
    const auto gate_started =
        profiling ? util::monotonic_now() : util::MonotonicTick{};
    balance = executor.balance_residual();
    copy = executor.copy_residual();
    if (accelerating) {
      // The plain step T(previous) just ran and its residuals are in hand.
      // Propose a mixed candidate, install it, measure it, and let the
      // mixer's safeguard keep or reject it; the residuals carried to the
      // trace / convergence gate / watchdog below are those of whichever
      // iterate survived.
      executor.copy_iterate(plain_);
      const double plain_scaled = std::max(balance / executor.balance_scale(),
                                           copy / executor.copy_scale());
      if (anderson_->propose(previous_, plain_, candidate_)) {
        executor.clamp_iterate(candidate_);
        executor.set_iterate(candidate_);
        // std::max never selects NaN, so a non-finite candidate is flagged
        // explicitly instead of relying on residual propagation.
        double candidate_balance = std::numeric_limits<double>::quiet_NaN();
        double candidate_copy = std::numeric_limits<double>::quiet_NaN();
        double candidate_scaled = std::numeric_limits<double>::quiet_NaN();
        if (executor.iterate_finite()) {
          candidate_balance = executor.balance_residual();
          candidate_copy = executor.copy_residual();
          candidate_scaled =
              std::max(candidate_balance / executor.balance_scale(),
                       candidate_copy / executor.copy_scale());
        }
        if (anderson_->accept(plain_scaled, candidate_scaled)) {
          balance = candidate_balance;
          copy = candidate_copy;
        } else {
          executor.set_iterate(plain_);
        }
      }
    }
    if (sampling) {
      const double objective = executor.objective();
      if (options_.record_trace) {
        core.trace.balance_residual.push_back(balance);
        core.trace.copy_residual.push_back(copy);
        core.trace.objective.push_back(objective);
      }
      if (options_.observer != nullptr) {
        IterationSample sample;
        sample.iteration = k;
        sample.balance_residual = balance;
        sample.copy_residual = copy;
        sample.change = executor.last_change();
        sample.objective = objective;
        sample.wall_seconds = wall_seconds;
        if (profiling) {
          sample.has_phases = true;
          if (const PhaseProfile* phases = executor.phase_profile())
            sample.phases = *phases;
          sample.phases.gate_seconds =
              util::seconds_between(gate_started, util::monotonic_now());
        }
        options_.observer->on_iteration(sample);
      }
    }
    // Convergence is tested first so that reaching tolerance on the same
    // iteration a stall window fills still counts as success. NaN residuals
    // can never pass the comparisons, so NonFinite is not maskable. The
    // freshness gate keeps degraded-mode runs from declaring victory while
    // an agent is still integrating inputs older than the staleness bound.
    if (executor.inputs_fresh(k) &&
        balance / executor.balance_scale() < options_.tolerance &&
        copy / executor.copy_scale() < options_.tolerance &&
        executor.last_change() / executor.copy_scale() < options_.tolerance) {
      core.converged = true;
      break;
    }
    const bool finite =
        !options_.watchdog.check_finite || executor.iterate_finite();
    if (watchdog.observe(balance / executor.balance_scale(),
                         copy / executor.copy_scale(),
                         finite) != WatchdogVerdict::Healthy) {
      core.watchdog_verdict = watchdog.verdict();
      break;
    }
  }
  core.balance_residual = balance;
  core.copy_residual = copy;
  core.acceleration_fallbacks = accelerating ? anderson_->fallbacks() : 0;
  core.status = core.watchdog_verdict != WatchdogVerdict::Healthy
                    ? SolveStatus::WatchdogTripped
                : core.converged ? SolveStatus::Converged
                                 : SolveStatus::BudgetExhausted;

  if (core.watchdog_verdict != WatchdogVerdict::Healthy) {
    log::warn("ADM-G watchdog tripped (",
              core.watchdog_verdict == WatchdogVerdict::NonFinite
                  ? "non-finite iterate"
                  : "residual stall",
              ") after ", core.iterations, " iterations");
    if (options_.fallback_to_centralized) {
      CentralizedOptions fallback;
      fallback.grid_only = options_.pinning == BlockPinning::PinMu;
      fallback.fuel_cell_only = options_.pinning == BlockPinning::PinNu;
      const auto safe = solve_centralized(executor.original_problem(), fallback);
      core.solution = safe.solution;
      core.breakdown = safe.breakdown;
      core.fallback_centralized = true;
      if (options_.observer != nullptr) options_.observer->on_solve_end(core);
      return core;
    }
  }

  // Rescale routing back to caller units and evaluate on the original
  // problem (the objective is invariant, but reported latencies/costs should
  // reference the caller's units).
  Mat lambda_servers = executor.gather_lambda();
  lambda_servers *= executor.workload_scale();
  core.solution.lambda = std::move(lambda_servers);
  core.solution.mu = executor.gather_mu();
  core.solution.nu = grid_draw_mw(executor.original_problem(),
                                  core.solution.lambda, core.solution.mu);
  core.breakdown =
      evaluate(executor.original_problem(), core.solution.lambda,
               core.solution.mu);

  if (!core.converged && options_.warn_on_unconverged) {
    log::warn("ADM-G did not converge in ", core.iterations,
              " iterations (balance residual ", core.balance_residual,
              ", copy residual ", core.copy_residual, ")");
  }
  if (options_.observer != nullptr) options_.observer->on_solve_end(core);
  return core;
}

}  // namespace ufc::admm
