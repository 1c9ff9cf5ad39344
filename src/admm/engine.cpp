#include "admm/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "admm/centralized.hpp"
#include "util/clock.hpp"
#include "util/contract.hpp"
#include "util/logging.hpp"
#include "util/wire.hpp"

namespace ufc::admm {

namespace {

// Checkpoint framing (see docs/ROBUSTNESS.md): magic + version guard the
// decoder against foreign byte strings, dimensions + sigma guard against
// restoring into an executor built on a different problem shape.
constexpr std::uint32_t kCheckpointMagic = 0x55464343;  // "UFCC"
constexpr std::uint32_t kCheckpointVersion = 1;

bool all_finite(std::span<const double> values) {
  for (double v : values)
    if (!std::isfinite(v)) return false;
  return true;
}

}  // namespace

double natural_workload_scale(const UfcProblem& problem) {
  UFC_EXPECTS(problem.num_front_ends() > 0);
  const double mean_arrival =
      problem.total_arrivals() /
      static_cast<double>(problem.num_front_ends());
  return std::max(1.0, mean_arrival);
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

// ---------------------------------------------------------------------------
// Gaussian back substitution (paper step 2, backward order). Duals first
// (identity row of G), then a, then nu and mu with the cross-block
// correction terms derived from (K_i^T K_i)^{-1} K_i^T K_j for our
// constraint matrices (see DESIGN.md). With gbs=false: plain multi-block
// ADMM (ablation), accept the prediction unchanged.

void correct_varphi_block(std::span<double> varphi,
                          std::span<const double> a_tilde,
                          std::span<const double> lambda_tilde, double rho,
                          double eps, bool gbs) {
  UFC_EXPECTS(a_tilde.size() == varphi.size() &&
              lambda_tilde.size() == varphi.size());
  for (std::size_t i = 0; i < varphi.size(); ++i) {
    const double varphi_tilde =
        update_varphi(varphi[i], rho, a_tilde[i], lambda_tilde[i]);
    if (gbs) {
      varphi[i] += eps * (varphi_tilde - varphi[i]);
    } else {
      varphi[i] = varphi_tilde;
    }
  }
}

ABlockCorrection correct_a_block(std::span<double> a,
                                 std::span<const double> a_tilde, double eps,
                                 bool gbs) {
  UFC_EXPECTS(a_tilde.size() == a.size());
  ABlockCorrection out;
  if (!gbs) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      out.max_change = std::max(out.max_change, std::abs(a_tilde[i] - a[i]));
      a[i] = a_tilde[i];
    }
    return out;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double a_old = a[i];
    const double delta = eps * (a_tilde[i] - a_old);
    a[i] = a_old + delta;
    out.delta_sum += delta;
    out.max_change = std::max(out.max_change, std::abs(a[i] - a_old));
  }
  return out;
}

double correct_sources(double& phi, double& nu, double& mu, double phi_tilde,
                       double nu_tilde, double mu_tilde, double beta,
                       double delta_sum, double eps, bool gbs, bool pin_mu,
                       bool pin_nu) {
  UFC_EXPECTS(eps > 0.0 && eps <= 1.0);
  double change = 0.0;
  if (!gbs) {
    phi = phi_tilde;
    change = std::max(change, std::abs(nu_tilde - nu));
    nu = nu_tilde;
    change = std::max(change, std::abs(mu_tilde - mu));
    mu = mu_tilde;
    return change;
  }
  phi += eps * (phi_tilde - phi);
  const double nu_old = nu;
  if (!pin_nu) {
    nu += eps * (nu_tilde - nu) + beta * delta_sum;
    change = std::max(change, std::abs(nu - nu_old));
  }
  if (!pin_mu) {
    const double mu_old = mu;
    double correction = eps * (mu_tilde - mu);
    if (!pin_nu) correction -= (nu - nu_old);
    correction += beta * delta_sum;
    mu = mu_old + correction;
    change = std::max(change, std::abs(mu - mu_old));
  }
  return change;
}

// ---------------------------------------------------------------------------

InProcessExecutor::InProcessExecutor(const UfcProblem& problem,
                                     AdmgOptions options)
    : original_(problem),
      options_(options),
      pool_(util::resolve_thread_count(options.threads)) {
  original_.validate();
  UFC_EXPECTS(options_.rho > 0.0);
  UFC_EXPECTS(options_.epsilon > 0.5 && options_.epsilon <= 1.0);
  UFC_EXPECTS(options_.max_iterations > 0);
  UFC_EXPECTS(options_.tolerance > 0.0);
  UFC_EXPECTS(options_.threads >= 0);

  sigma_ = options_.workload_scale > 0.0 ? options_.workload_scale
                                         : natural_workload_scale(original_);
  problem_ = scale_workload_units(original_, sigma_);

  m_ = problem_.num_front_ends();
  n_ = problem_.num_datacenters();

  if (options_.pinning == BlockPinning::PinNu) {
    // nu = 0 requires fuel cells able to carry the peak demand at every
    // datacenter (the paper's "completely powered by fuel cells" premise).
    for (std::size_t j = 0; j < n_; ++j) {
      const double peak = problem_.demand_mw(j, problem_.datacenters[j].servers);
      UFC_EXPECTS(problem_.datacenters[j].fuel_cell_capacity_mw >=
                  peak - 1e-9);
    }
  }

  update_residual_scales();
  reset();
}

void InProcessExecutor::enable_partial(double participation,
                                       std::uint64_t seed) {
  UFC_EXPECTS(participation > 0.0 && participation < 1.0);
  partial_ = true;
  participation_ = participation;
  rng_ = Rng(seed);
  participate_.assign(m_, 1);
  skipped_updates_ = 0;
}

void InProcessExecutor::update_residual_scales() {
  // Residual scales: copy residual lives in "servers routed" units, balance
  // residual in MW. Normalize by the largest arrival / peak demand so the
  // convergence test is dimensionless.
  double max_arrival = 1.0;
  for (double a : problem_.arrivals) max_arrival = std::max(max_arrival, a);
  copy_scale_ = max_arrival;
  double max_demand = 1.0;
  for (std::size_t j = 0; j < n_; ++j)
    max_demand = std::max(
        max_demand, problem_.demand_mw(j, problem_.datacenters[j].servers));
  balance_scale_ = max_demand;
}

void InProcessExecutor::reset() {
  // The paper's cold start: everything at zero.
  lambda_ = Mat(m_, n_, 0.0);
  a_ = Mat(m_, n_, 0.0);
  varphi_ = Mat(m_, n_, 0.0);
  mu_ = Vec(n_, 0.0);
  nu_ = Vec(n_, 0.0);
  phi_ = Vec(n_, 0.0);
  last_change_ = 0.0;
  stepped_ = false;

  // Step workspace, allocated once here so step() itself never allocates:
  // the tilde matrix, the transposed mirrors, the column-sum caches and one
  // scratch set per worker.
  lambda_tilde_ = Mat(m_, n_, 0.0);
  lambda_tilde_t_ = Mat(n_, m_, 0.0);
  a_t_ = Mat(n_, m_, 0.0);
  varphi_t_ = Mat(n_, m_, 0.0);
  a_col_sum_.resize(n_);
  a_col_sum_post_.resize(n_);
  post_sums_fresh_ = false;
  participate_.assign(m_, 1);
  scratch_.resize(pool_.thread_count());
  for (auto& ws : scratch_) ws.a_new.resize(m_);
  chunk_change_.assign(pool_.thread_count(), 0.0);
  chunk_predict_seconds_.assign(pool_.thread_count(), 0.0);
  chunk_correct_seconds_.assign(pool_.thread_count(), 0.0);
}

void InProcessExecutor::copy_iterate(std::span<double> out) const {
  UFC_EXPECTS(out.size() == iterate_size());
  double* dst = out.data();
  dst = std::copy(lambda_.data(), lambda_.data() + lambda_.size(), dst);
  dst = std::copy(a_.data(), a_.data() + a_.size(), dst);
  dst = std::copy(varphi_.data(), varphi_.data() + varphi_.size(), dst);
  dst = std::copy(mu_.begin(), mu_.end(), dst);
  dst = std::copy(nu_.begin(), nu_.end(), dst);
  std::copy(phi_.begin(), phi_.end(), dst);
}

void InProcessExecutor::set_iterate(std::span<const double> values) {
  UFC_EXPECTS(values.size() == iterate_size());
  const double* src = values.data();
  std::copy(src, src + lambda_.size(), lambda_.data());
  src += lambda_.size();
  std::copy(src, src + a_.size(), a_.data());
  src += a_.size();
  std::copy(src, src + varphi_.size(), varphi_.data());
  src += varphi_.size();
  std::copy(src, src + mu_.size(), mu_.data());
  src += mu_.size();
  std::copy(src, src + nu_.size(), nu_.data());
  src += nu_.size();
  std::copy(src, src + phi_.size(), phi_.data());
  // The maintained column sums described the stepped iterate.
  post_sums_fresh_ = false;
}

void InProcessExecutor::clamp_iterate(std::span<double> values) const {
  UFC_EXPECTS(values.size() == iterate_size());
  const std::size_t mn = m_ * n_;
  // lambda and a carry workloads: the model layer requires them >= 0. The
  // varphi segment between them is dual and stays untouched.
  for (std::size_t k = 0; k < 2 * mn; ++k)
    values[k] = std::max(0.0, values[k]);
  double* mu = values.data() + 3 * mn;
  double* nu = mu + n_;
  for (std::size_t j = 0; j < n_; ++j) {
    // mu_j is fuel-cell generation, bounded by the installed capacity
    // mu_max_j; nu_j is grid draw, bounded below only. (An earlier revision
    // had these two swapped, which let an extrapolated mu_j sail past a
    // shrunken capacity while truncating legitimate grid draw — pinned by
    // ProblemUpdateTest.ClampProjectsMuToCapacityAndNuToZero.)
    mu[j] = std::clamp(mu[j], 0.0,
                       problem_.datacenters[j].fuel_cell_capacity_mw);
    nu[j] = std::max(0.0, nu[j]);
  }
}

double InProcessExecutor::balance_residual() const {
  double r = 0.0;
  for (std::size_t j = 0; j < n_; ++j) {
    // The maintained post-correction sums are bitwise equal to col_sum
    // (same increasing-i addition order); the fallback only runs before the
    // first step or right after restore().
    const double col_sum =
        post_sums_fresh_ ? a_col_sum_post_[j] : a_.col_sum(j);
    const double balance = problem_.alpha_mw(j) +
                           problem_.beta_mw(j) * col_sum - mu_[j] -
                           nu_[j];
    r = std::max(r, std::abs(balance));
  }
  return r;
}

double InProcessExecutor::copy_residual() const {
  return max_abs_diff(a_, lambda_);
}

double InProcessExecutor::objective() const {
  return ufc_objective(problem_, lambda_, mu_);
}

bool InProcessExecutor::is_converged() const {
  return stepped_ &&
         balance_residual() / balance_scale_ < options_.tolerance &&
         copy_residual() / copy_scale_ < options_.tolerance &&
         last_change_ / copy_scale_ < options_.tolerance;
}

// The step runs two parallel passes over deterministic contiguous chunks:
// one per front-end (lambda predictions) and one per datacenter (mu, nu, a,
// duals and the Gaussian back substitution, fused column-wise exactly like
// net::DatacenterAgent). Every item writes only its own row/column, so the
// iterate sequence is bit-identical for every thread count — and identical
// to the message-passing runtime, which tests pin exactly.
void InProcessExecutor::step(int /*iteration*/) {
  using util::monotonic_now;
  using util::MonotonicTick;
  using util::seconds_between;
  if (profile_) {
    profile_last_ = PhaseProfile{};
    std::fill(chunk_predict_seconds_.begin(), chunk_predict_seconds_.end(),
              0.0);
    std::fill(chunk_correct_seconds_.begin(), chunk_correct_seconds_.end(),
              0.0);
  }
  const double rho = options_.rho;

  // Straggler draws happen serially in ascending front-end order before the
  // parallel pass, so the consumed random stream (and therefore the iterate
  // sequence) is independent of the thread count.
  if (partial_) {
    for (std::size_t i = 0; i < m_; ++i) {
      participate_[i] = rng_.bernoulli(participation_) ? 1 : 0;
      if (participate_[i] == 0) ++skipped_updates_;
    }
  }

  // Cache the column sums of a^k once per step. The row-major pass adds each
  // column's entries in increasing-i order, which is bitwise the same as
  // Mat::col_sum and as the runtime agent's sum(a_).
  a_col_sum_.fill(0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    const auto row = a_.row_span(i);
    for (std::size_t j = 0; j < n_; ++j) a_col_sum_[j] += row[j];
  }

  // ---- Step 1.1: lambda predictions, one independent task per front-end.
  const auto lambda_pass_started =
      profile_ ? monotonic_now() : MonotonicTick{};
  pool_.parallel_for_chunks(
      0, m_, [&](std::size_t begin, std::size_t end, std::size_t c) {
        BlockWorkspace& ws = scratch_[c].blocks;
        for (std::size_t i = begin; i < end; ++i) {
          if (partial_ && participate_[i] == 0) {
            // Straggler: the coordinator keeps this front-end's cached
            // prediction. lambda_ holds the previous step's predictions
            // (post-swap), so copying the row into lambda~ reproduces the
            // stale proposal exactly; at the cold start both rows are zero.
            const auto cached = lambda_.row_span(i);
            const auto stale = lambda_tilde_.row_span(i);
            std::copy(cached.begin(), cached.end(), stale.begin());
            continue;
          }
          LambdaBlockInputs in;
          in.arrival = problem_.arrivals[i];
          in.latency_row = problem_.latency_s.row_span(i);
          in.a_row = a_.row_span(i);
          in.varphi_row = varphi_.row_span(i);
          in.rho = rho;
          in.latency_weight = problem_.latency_weight;
          in.utility = problem_.utility.get();
          solve_lambda_block_into(in, lambda_.row_span(i),
                                  lambda_tilde_.row_span(i), ws);
        }
      });

  if (profile_)
    profile_last_.lambda_pass_seconds =
        seconds_between(lambda_pass_started, monotonic_now());

  // ---- Steps 1.2-1.5 + step 2, fused per datacenter. Each column task
  // reads only iteration-k state of its own column (plus lambda~ and the
  // column-sum cache, both finalized above), so tasks are independent.
  std::fill(chunk_change_.begin(), chunk_change_.end(), 0.0);
  run_full_datacenter_pass();

  if (profile_) {
    // Summed worker-thread time (not wall time): chunks overlap, so the
    // phase totals measure compute cost, comparable across thread counts.
    for (const double s : chunk_predict_seconds_)
      profile_last_.prediction_seconds += s;
    for (const double s : chunk_correct_seconds_)
      profile_last_.correction_seconds += s;
  }

  // lambda is the first block: accepted as predicted. Swapping (instead of
  // moving) keeps lambda_tilde_'s storage for the next step; the lambda pass
  // rewrites every row.
  std::swap(lambda_, lambda_tilde_);

  // max is exact and order-insensitive, so the cross-chunk reduction is
  // bit-identical for every chunking.
  double change = 0.0;
  for (double c : chunk_change_) change = std::max(change, c);
  last_change_ = change;
  post_sums_fresh_ = true;
  stepped_ = true;
}

// Fused per-datacenter prediction + correction (steps 1.2-1.5 + step 2) over
// the transposed mirrors: each column task reads and writes contiguous rows
// of the N x M transposes instead of gathering/scattering strided columns of
// the row-major primaries. Values and evaluation order are identical to the
// former col_into/set_col formulation bit for bit — only the memory layout
// changed.
void InProcessExecutor::run_full_datacenter_pass() {
  using util::monotonic_now;
  using util::MonotonicTick;
  using util::seconds_between;
  const double rho = options_.rho;
  const bool pin_mu = options_.pinning == BlockPinning::PinMu;
  const bool pin_nu = options_.pinning == BlockPinning::PinNu;
  const bool gbs = options_.gaussian_back_substitution;
  const double eps = gbs ? options_.epsilon : 1.0;

  varphi_.transpose_into(varphi_t_);
  lambda_tilde_.transpose_into(lambda_tilde_t_);
  a_.transpose_into(a_t_);

  pool_.parallel_for_chunks(
      0, n_, [&](std::size_t begin, std::size_t end, std::size_t c) {
        WorkerScratch& ws = scratch_[c];
        double change = 0.0;
        for (std::size_t j = begin; j < end; ++j) {
          const auto column_started =
              profile_ ? monotonic_now() : MonotonicTick{};
          const double alpha = problem_.alpha_mw(j);
          const double beta = problem_.beta_mw(j);
          const double a_col_sum_k = a_col_sum_[j];

          // 1.2 mu-minimization (uses a^k, nu^k, phi^k).
          double mu_tilde = 0.0;
          if (!pin_mu) {
            MuBlockInputs in;
            in.alpha = alpha;
            in.beta = beta;
            in.a_col_sum = a_col_sum_k;
            in.nu = nu_[j];
            in.phi = phi_[j];
            in.rho = rho;
            in.fuel_cell_price = problem_.fuel_cell_price;
            in.mu_max = problem_.datacenters[j].fuel_cell_capacity_mw;
            mu_tilde = solve_mu_block(in);
          }

          // 1.3 nu-minimization (uses a^k, mu~, phi^k).
          double nu_tilde = 0.0;
          if (!pin_nu) {
            NuBlockInputs in;
            in.alpha = alpha;
            in.beta = beta;
            in.a_col_sum = a_col_sum_k;
            in.mu = mu_tilde;
            in.phi = phi_[j];
            in.rho = rho;
            in.grid_price = problem_.datacenters[j].grid_price;
            in.carbon_tons_per_mwh =
                problem_.datacenters[j].carbon_rate / 1000.0;
            in.emission_cost = problem_.datacenters[j].emission_cost.get();
            nu_tilde = solve_nu_block(in);
          }

          // 1.4 a-minimization (uses lambda~, mu~, nu~, phi^k, varphi^k) —
          // directly on the contiguous transposed rows.
          const auto varphi_col = varphi_t_.row_span(j);
          const auto lambda_col = lambda_tilde_t_.row_span(j);
          const auto a_col = a_t_.row_span(j);
          {
            ABlockInputs in;
            in.alpha = alpha;
            in.beta = beta;
            in.mu = mu_tilde;
            in.nu = nu_tilde;
            in.phi = phi_[j];
            in.varphi_col = varphi_col;
            in.lambda_col = lambda_col;
            in.rho = rho;
            in.capacity = problem_.datacenters[j].servers;
            solve_a_block_into(in, a_col, ws.a_new.span(), ws.blocks);
          }

          // 1.5 dual predictions (use a~, lambda~, mu~, nu~).
          double a_tilde_sum = 0.0;
          for (std::size_t i = 0; i < m_; ++i) a_tilde_sum += ws.a_new[i];
          const double phi_tilde = update_phi(phi_[j], rho, alpha, beta,
                                              a_tilde_sum, mu_tilde, nu_tilde);

          // Phase boundary: everything above is the prediction pass
          // (steps 1.2-1.5), everything below the GBS correction. Clock
          // reads only — the arithmetic is untouched.
          const auto correction_started =
              profile_ ? monotonic_now() : MonotonicTick{};
          if (profile_)
            chunk_predict_seconds_[c] +=
                seconds_between(column_started, correction_started);

          // Step 2 (or the plain-ADMM acceptance when gbs is off), applied
          // in place on the transposed rows. Each variable's correction
          // reads only its own old value, so sequencing varphi -> a ->
          // (phi, nu, mu) is bitwise the same as the paper's backward order.
          correct_varphi_block(varphi_col, ws.a_new.span(), lambda_col, rho,
                               eps, gbs);
          const ABlockCorrection corr =
              correct_a_block(a_col, ws.a_new.span(), eps, gbs);
          // Post-correction column sum in increasing-i order: bitwise equal
          // to Mat::col_sum on the transposed-back primary.
          double col_total = 0.0;
          for (std::size_t i = 0; i < m_; ++i) col_total += a_col[i];
          a_col_sum_post_[j] = col_total;
          change = std::max(change, corr.max_change);
          change = std::max(
              change, correct_sources(phi_[j], nu_[j], mu_[j], phi_tilde,
                                      nu_tilde, mu_tilde, beta, corr.delta_sum,
                                      eps, gbs, pin_mu, pin_nu));

          if (profile_)
            chunk_correct_seconds_[c] +=
                seconds_between(correction_started, monotonic_now());
        }
        chunk_change_[c] = change;
      });

  varphi_t_.transpose_into(varphi_);
  a_t_.transpose_into(a_);
}

void InProcessExecutor::apply_update(const ProblemUpdate& update) {
  // An empty batch describes the same problem: keep the certification gate,
  // the residual scales and the cached sums, so a converged solver stays
  // converged and callers need no emptiness guard.
  if (update.empty()) return;
  // Validate the whole batch before touching anything: a malformed entry
  // must never leave the live problem half-updated under a warm solver.
  for (const auto& [i, value] : update.arrivals) {
    UFC_EXPECTS(i < m_);
    UFC_EXPECTS(std::isfinite(value) && value >= 0.0);
  }
  for (const auto* batch :
       {&update.grid_prices, &update.carbon_rates, &update.fuel_cell_caps}) {
    for (const auto& [j, value] : *batch) {
      UFC_EXPECTS(j < n_);
      UFC_EXPECTS(std::isfinite(value) && value >= 0.0);
    }
  }
  if (options_.pinning == BlockPinning::PinNu) {
    // The FuelCell strategy's construction invariant: capacity covers the
    // peak demand. A tick must not silently break it.
    for (const auto& [j, value] : update.fuel_cell_caps) {
      const double peak =
          problem_.demand_mw(j, problem_.datacenters[j].servers);
      UFC_EXPECTS(value >= peak - 1e-9);
    }
  }
  // Aggregate feasibility, checked against a scratch copy (duplicate
  // indices are allowed, last writer wins — same as replaying the entries).
  std::vector<double> new_arrivals = original_.arrivals;
  for (const auto& [i, value] : update.arrivals) new_arrivals[i] = value;
  double total = 0.0;
  for (double a : new_arrivals) total += a;
  UFC_EXPECTS(total <= original_.total_server_capacity() + 1e-9);

  // Commit. Arrivals are workload quantities (divided by sigma in the
  // normalized problem); prices, carbon rates and fuel-cell caps are $/MWh,
  // kg/MWh and MW — invariant under the workload normalization.
  original_.arrivals = std::move(new_arrivals);
  for (const auto& [i, value] : update.arrivals) {
    (void)value;
    problem_.arrivals[i] = original_.arrivals[i] / sigma_;
  }
  for (const auto& [j, value] : update.grid_prices) {
    original_.datacenters[j].grid_price = value;
    problem_.datacenters[j].grid_price = value;
  }
  for (const auto& [j, value] : update.carbon_rates) {
    original_.datacenters[j].carbon_rate = value;
    problem_.datacenters[j].carbon_rate = value;
  }
  for (const auto& [j, value] : update.fuel_cell_caps) {
    original_.datacenters[j].fuel_cell_capacity_mw = value;
    problem_.datacenters[j].fuel_cell_capacity_mw = value;
  }

  // Invalidate everything that described the pre-update problem: residual
  // scales, the convergence-certification gate (stepped_) and the cached
  // post-correction column sums.
  update_residual_scales();
  stepped_ = false;
  post_sums_fresh_ = false;
  // A shrunken cap can leave the warm mu_j outside the new primal box.
  repair_iterate_bounds();
}

void InProcessExecutor::repair_iterate_bounds() {
  bool feasible = true;
  for (std::size_t j = 0; j < n_ && feasible; ++j) {
    const double cap = problem_.datacenters[j].fuel_cell_capacity_mw;
    feasible = mu_[j] >= 0.0 && mu_[j] <= cap && nu_[j] >= 0.0;
  }
  if (feasible) {
    const auto nonnegative = [](std::span<const double> values) {
      for (const double v : values)
        if (v < 0.0) return false;
      return true;
    };
    feasible = nonnegative(lambda_.raw()) && nonnegative(a_.raw());
  }
  if (feasible) return;
  // Route the infeasible warm iterate through the same projection the
  // acceleration safeguard uses; set_iterate then invalidates the caches
  // that described the unprojected point.
  std::vector<double> flat(iterate_size());
  copy_iterate(flat);
  clamp_iterate(flat);
  set_iterate(flat);
}

bool InProcessExecutor::iterate_finite() const {
  return all_finite(lambda_.raw()) && all_finite(a_.raw()) &&
         all_finite(varphi_.raw()) && all_finite(mu_.span()) &&
         all_finite(nu_.span()) && all_finite(phi_.span()) &&
         std::isfinite(last_change_);
}

std::vector<std::byte> InProcessExecutor::checkpoint() const {
  std::vector<std::byte> out;
  wire::append(out, kCheckpointMagic);
  wire::append(out, kCheckpointVersion);
  wire::append(out, static_cast<std::uint64_t>(m_));
  wire::append(out, static_cast<std::uint64_t>(n_));
  wire::append(out, sigma_);
  wire::append(out, last_change_);
  wire::append(out, static_cast<std::uint8_t>(stepped_ ? 1 : 0));
  wire::append_f64s(out, lambda_.raw());
  wire::append_f64s(out, a_.raw());
  wire::append_f64s(out, varphi_.raw());
  wire::append_f64s(out, mu_.span());
  wire::append_f64s(out, nu_.span());
  wire::append_f64s(out, phi_.span());
  return out;
}

void InProcessExecutor::restore(std::span<const std::byte> bytes) {
  std::size_t offset = 0;
  UFC_EXPECTS(wire::read<std::uint32_t>(bytes, offset) == kCheckpointMagic);
  UFC_EXPECTS(wire::read<std::uint32_t>(bytes, offset) == kCheckpointVersion);
  UFC_EXPECTS(wire::read<std::uint64_t>(bytes, offset) == m_);
  UFC_EXPECTS(wire::read<std::uint64_t>(bytes, offset) == n_);
  // Iterates are stored in normalized workload units; a different sigma
  // would silently reinterpret them.
  UFC_EXPECTS(wire::read<double>(bytes, offset) == sigma_);
  last_change_ = wire::read<double>(bytes, offset);
  stepped_ = wire::read<std::uint8_t>(bytes, offset) != 0;
  wire::read_f64s(bytes, offset, {lambda_.data(), lambda_.size()});
  wire::read_f64s(bytes, offset, {a_.data(), a_.size()});
  wire::read_f64s(bytes, offset, {varphi_.data(), varphi_.size()});
  wire::read_f64s(bytes, offset, mu_.span());
  wire::read_f64s(bytes, offset, nu_.span());
  wire::read_f64s(bytes, offset, phi_.span());
  UFC_EXPECTS(offset == bytes.size());
  // The cached column sums describe the pre-restore iterate.
  post_sums_fresh_ = false;
}

PartialParticipationExecutor::PartialParticipationExecutor(
    const UfcProblem& problem, AdmgOptions options, double participation,
    std::uint64_t seed)
    : InProcessExecutor(problem, options) {
  UFC_EXPECTS(participation > 0.0 && participation <= 1.0);
  // The pinned baselines' convergence argument assumes every agent moves
  // every round. 1.0 is an exact sentinel meaning "every agent
  // participates", not a computed value.
  // ufc-lint: allow(float-equal)
  UFC_EXPECTS(options.pinning == BlockPinning::None || participation == 1.0);
  // At exactly 1 the straggler model stays disabled: the step consumes no
  // randomness and remains bit-identical to the synchronous path.
  if (participation < 1.0) enable_partial(participation, seed);
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
