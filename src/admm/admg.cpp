#include "admm/admg.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/clock.hpp"
#include "util/contract.hpp"
#include "util/wire.hpp"

namespace ufc::admm {

namespace {

// Checkpoint framing (see docs/ROBUSTNESS.md): magic + version guard the
// decoder against foreign byte strings, dimensions + sigma guard against
// restoring into a solver built on a different problem shape.
constexpr std::uint32_t kCheckpointMagic = 0x55464343;  // "UFCC"
constexpr std::uint32_t kCheckpointVersion = 1;

}  // namespace

AdmgSolver::AdmgSolver(const UfcProblem& problem, AdmgOptions options)
    : original_(problem),
      options_(options),
      pool_(util::resolve_thread_count(options.threads)) {
  original_.validate();
  sigma_ = workload_scale_for(original_, options_);
  problem_ = scale_workload_units(original_, sigma_);
  rule_ = step_rule(problem_, options_);
  scales_ = residual_scales(problem_);
  m_ = problem_.num_front_ends();
  n_ = problem_.num_datacenters();
  reset();
}

void AdmgSolver::enable_partial(double participation, std::uint64_t seed) {
  UFC_EXPECTS(participation > 0.0 && participation < 1.0);
  partial_ = true;
  participation_ = participation;
  rng_ = Rng(seed);
  participate_.assign(m_, 1);
  skipped_updates_ = 0;
}

void AdmgSolver::reset() {
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
  // the tilde matrix, the transposed mirrors, the column-sum cache and one
  // scratch set per worker.
  lambda_tilde_ = Mat(m_, n_, 0.0);
  lambda_tilde_t_ = Mat(n_, m_, 0.0);
  a_t_ = Mat(n_, m_, 0.0);
  varphi_t_ = Mat(n_, m_, 0.0);
  a_col_sum_post_.resize(n_);
  post_sums_fresh_ = false;
  participate_.assign(m_, 1);
  scratch_.resize(pool_.thread_count());
  for (auto& ws : scratch_) ws.a_new.resize(m_);
  chunk_change_.assign(pool_.thread_count(), 0.0);
  chunk_profiles_.assign(pool_.thread_count(), PhaseProfile{});
}

void AdmgSolver::copy_iterate(std::span<double> out) const {
  UFC_EXPECTS(out.size() == iterate_size());
  double* dst = out.data();
  dst = std::copy(lambda_.data(), lambda_.data() + lambda_.size(), dst);
  dst = std::copy(a_.data(), a_.data() + a_.size(), dst);
  dst = std::copy(varphi_.data(), varphi_.data() + varphi_.size(), dst);
  dst = std::copy(mu_.begin(), mu_.end(), dst);
  dst = std::copy(nu_.begin(), nu_.end(), dst);
  std::copy(phi_.begin(), phi_.end(), dst);
}

void AdmgSolver::set_iterate(std::span<const double> values) {
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

void AdmgSolver::clamp_iterate(std::span<double> values) const {
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

double AdmgSolver::balance_residual() const {
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

double AdmgSolver::copy_residual() const {
  return max_abs_diff(a_, lambda_);
}

double AdmgSolver::objective() const {
  return ufc_objective(problem_, lambda_, mu_);
}

bool AdmgSolver::is_converged() const {
  return stepped_ &&
         balance_residual() / scales_.balance < options_.tolerance &&
         copy_residual() / scales_.copy < options_.tolerance &&
         last_change_ / scales_.copy < options_.tolerance;
}

// The step runs two parallel passes over deterministic contiguous chunks:
// one per front-end (lambda predictions) and one per datacenter (the
// predict_datacenter / correct_datacenter procedures net::DatacenterAgent
// runs, plus the varphi correction). Every item writes only its own
// row/column, so the iterate sequence is bit-identical for every thread
// count — and identical to the message-passing runtime, which tests pin
// exactly.
void AdmgSolver::step(int /*iteration*/) {
  using util::monotonic_now;
  using util::MonotonicTick;
  using util::seconds_between;
  if (profile_) {
    profile_last_ = PhaseProfile{};
    std::fill(chunk_profiles_.begin(), chunk_profiles_.end(), PhaseProfile{});
  }
  // Straggler draws happen serially in ascending front-end order before the
  // parallel pass, so the consumed random stream (and therefore the iterate
  // sequence) is independent of the thread count.
  if (partial_) {
    for (std::size_t i = 0; i < m_; ++i) {
      participate_[i] = rng_.bernoulli(participation_) ? 1 : 0;
      if (participate_[i] == 0) ++skipped_updates_;
    }
  }

  // ---- Step 1.1: lambda predictions, one independent task per front-end.
  const auto lambda_pass_started =
      profile_ ? monotonic_now() : MonotonicTick{};
  pool_.parallel_for_chunks(
      0, m_, [&](std::size_t begin, std::size_t end, std::size_t c) {
        BlockWorkspace& ws = scratch_[c].blocks;
        std::uint64_t probes = 0;
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
          // lambda_ still holds the previous step's lambda, where the
          // block's root search starts.
          probes += static_cast<std::uint64_t>(solve_lambda_block_into(
              {.arrival = problem_.arrivals[i],
               .latency_row = problem_.latency_s.row_span(i),
               .a_row = a_.row_span(i),
               .varphi_row = varphi_.row_span(i),
               .rho = rule_.rho,
               .latency_weight = problem_.latency_weight,
               .utility = problem_.utility.get()},
              lambda_.row_span(i), lambda_tilde_.row_span(i), ws));
        }
        if (profile_) chunk_profiles_[c].lambda_probes += probes;
      });

  if (profile_)
    profile_last_.lambda_pass_seconds =
        seconds_between(lambda_pass_started, monotonic_now());

  // ---- Steps 1.2-1.5 + step 2, fused per datacenter. Each column task
  // reads only iteration-k state of its own column (plus lambda~, finalized
  // above), so tasks are independent.
  std::fill(chunk_change_.begin(), chunk_change_.end(), 0.0);
  run_full_datacenter_pass();

  if (profile_) {
    // Summed worker-thread time (not wall time): chunks overlap, so the
    // phase totals measure compute cost, comparable across thread counts.
    for (const PhaseProfile& chunk : chunk_profiles_) {
      profile_last_.prediction_seconds += chunk.prediction_seconds;
      profile_last_.correction_seconds += chunk.correction_seconds;
      profile_last_.lambda_probes += chunk.lambda_probes;
      profile_last_.a_probes += chunk.a_probes;
    }
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
void AdmgSolver::run_full_datacenter_pass() {
  using util::monotonic_now;
  using util::MonotonicTick;
  using util::seconds_between;
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
          const DatacenterData dc = datacenter_data(problem_, j);
          const auto varphi_col = varphi_t_.row_span(j);
          const auto lambda_col = lambda_tilde_t_.row_span(j);
          const auto a_col = a_t_.row_span(j);
          const DatacenterPrediction predicted = predict_datacenter(
              dc, rule_, a_col, nu_[j], phi_[j], lambda_col, varphi_col,
              ws.a_new.span(), ws.blocks);

          // Phase boundary: everything above is the prediction pass
          // (steps 1.2-1.5), everything below the GBS correction. Clock
          // reads only — the arithmetic is untouched.
          const auto correction_started =
              profile_ ? monotonic_now() : MonotonicTick{};
          if (profile_) {
            chunk_profiles_[c].prediction_seconds +=
                seconds_between(column_started, correction_started);
            chunk_profiles_[c].a_probes +=
                static_cast<std::uint64_t>(predicted.a_probes);
          }

          // Step 2 (or the plain-ADMM acceptance when gbs is off), applied
          // in place on the transposed rows. Each variable's correction
          // reads only its own old value, so sequencing varphi -> a ->
          // (phi, nu, mu) is bitwise the same as the paper's backward order.
          // The message-passing runtime corrects varphi on the front-end
          // side instead; here the column pass owns it.
          correct_varphi_block(varphi_col, ws.a_new.span(), lambda_col,
                               rule_);
          change = std::max(
              change, correct_datacenter(dc, rule_, predicted, ws.a_new.span(),
                                         a_col, mu_[j], nu_[j], phi_[j]));
          // Post-correction column sum in increasing-i order: bitwise equal
          // to Mat::col_sum on the transposed-back primary.
          double col_total = 0.0;
          for (std::size_t i = 0; i < m_; ++i) col_total += a_col[i];
          a_col_sum_post_[j] = col_total;

          if (profile_)
            chunk_profiles_[c].correction_seconds +=
                seconds_between(correction_started, monotonic_now());
        }
        chunk_change_[c] = change;
      });

  varphi_t_.transpose_into(varphi_);
  a_t_.transpose_into(a_);
}

void AdmgSolver::apply_update(const ProblemUpdate& update) {
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
  if (rule_.pin_nu) {
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
  scales_ = residual_scales(problem_);
  stepped_ = false;
  post_sums_fresh_ = false;
  // A shrunken cap can leave the warm mu_j outside the new primal box.
  repair_iterate_bounds();
}

void AdmgSolver::repair_iterate_bounds() {
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

bool AdmgSolver::iterate_finite() const {
  return all_finite(lambda_.raw()) && all_finite(a_.raw()) &&
         all_finite(varphi_.raw()) && all_finite(mu_.span()) &&
         all_finite(nu_.span()) && all_finite(phi_.span()) &&
         std::isfinite(last_change_);
}

std::vector<std::byte> AdmgSolver::checkpoint() const {
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

void AdmgSolver::restore(std::span<const std::byte> bytes) {
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

AdmgReport AdmgSolver::solve() {
  reset();
  return solve_warm();
}

AdmgReport AdmgSolver::solve_warm() {
  AdmgEngine engine(options_);
  AdmgReport report;
  static_cast<SolveCore&>(report) = engine.solve(*this);
  return report;
}

AdmgReport AdmgSolver::solve_budgeted(int max_iterations) {
  UFC_EXPECTS(max_iterations > 0);
  // Same engine construction as solve_warm with only the iteration cap
  // overridden; the solver — and with it every per-step quantity — is
  // untouched, which is what makes budgeted resume bit-identical to one
  // long solve without acceleration.
  AdmgOptions budgeted = options_;
  budgeted.max_iterations = max_iterations;
  // Exhausting a deliberate budget is the expected outcome of most ticks;
  // report.status carries it, the solver-health log should stay quiet.
  budgeted.warn_on_unconverged = false;
  AdmgEngine engine(budgeted);
  AdmgReport report;
  static_cast<SolveCore&>(report) = engine.solve(*this);
  return report;
}

// ufc-lint: allow(expects-reach) — AdmgSolver's constructor validates the
// problem and every option before any work happens.
AdmgReport solve_admg(const UfcProblem& problem, const AdmgOptions& options) {
  AdmgSolver solver(problem, options);
  return solver.solve();
}

}  // namespace ufc::admm
