#include "admm/blocks.hpp"

#include <algorithm>
#include <cmath>

#include "math/projections.hpp"
#include "opt/scalar.hpp"
#include "util/contract.hpp"
#include "util/restrict.hpp"

namespace ufc::admm {

int solve_lambda_block_into(const LambdaBlockInputs& in,
                            std::span<const double> warm_start,
                            std::span<double> out, BlockWorkspace& ws,
                            const InnerSolverOptions& /*options*/) {
  UFC_EXPECTS(in.utility != nullptr);
  UFC_EXPECTS(in.rho > 0.0);
  UFC_EXPECTS(in.arrival >= 0.0);
  const std::size_t n = in.latency_row.size();
  UFC_EXPECTS(n > 0);
  UFC_EXPECTS(in.a_row.size() == n && in.varphi_row.size() == n);
  UFC_EXPECTS(warm_start.size() == n);
  UFC_EXPECTS(out.size() == n);

  // A front-end with no arrivals routes nothing.
  if (in.arrival <= 0.0) {
    std::fill(out.begin(), out.end(), 0.0);
    return 0;
  }

  // lambda(s) = P(base + pull(s) L), base = a + varphi / rho,
  // pull(s) = (w / rho) u'(s / A). The workspace never aliases the inputs,
  // so the loops run on restrict-qualified pointers.
  ws.base.resize(n);
  double* UFC_RESTRICT base = ws.base.data();
  const double* UFC_RESTRICT lat = in.latency_row.data();
  const double* UFC_RESTRICT a = in.a_row.data();
  const double* UFC_RESTRICT varphi = in.varphi_row.data();
  const double* UFC_RESTRICT warm = warm_start.data();
  double lat_min = lat[0];
  double lat_max = lat[0];
  double lat_sum = 0.0;
  double warm_sum = 0.0;
  double warm_routed = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    base[j] = a[j] + varphi[j] / in.rho;
    lat_min = std::min(lat_min, lat[j]);
    lat_max = std::max(lat_max, lat[j]);
    lat_sum += lat[j];
    warm_sum += warm[j];
    warm_routed += warm[j] * lat[j];
  }
  // The search starts at the previous iterate's s = L . lambda, rescaled to
  // this arrival, or at the mean latency when that row routes nothing (the
  // cold start, or a front-end whose arrivals were zero).
  const double start =
      warm_sum > 0.0 ? in.arrival * warm_routed / warm_sum
                     : in.arrival * lat_sum / static_cast<double>(n);
  const double weight = in.latency_weight / in.rho;
  // Each probe leaves lambda(s) in out; the root search returns at its last
  // probe, so out ends at the root.
  int probes = 0;
  auto gap = [&](double s) {
    ++probes;
    const double pull = weight * in.utility->derivative(s / in.arrival);
    for (std::size_t j = 0; j < n; ++j) out[j] = base[j] + pull * lat[j];
    project_simplex_into(out, in.arrival, out, ws.scratch);
    double routed = 0.0;
    for (std::size_t j = 0; j < n; ++j) routed += out[j] * lat[j];
    return s - routed;
  };
  monotone_root_from(gap, start, in.arrival * lat_min, in.arrival * lat_max);
  return probes;
}

double solve_mu_block(const MuBlockInputs& in) {
  UFC_EXPECTS(in.rho > 0.0);
  UFC_EXPECTS(in.mu_max >= 0.0);
  // Minimize (p0 - phi) mu + (rho/2)(c - mu)^2 over [0, mu_max],
  // c = alpha + beta * sum_i a_ij - nu. Unconstrained optimum:
  //   mu* = c + (phi - p0) / rho, then clamp.
  const double c = in.alpha + in.beta * in.a_col_sum - in.nu;
  const double unconstrained = c + (in.phi - in.fuel_cell_price) / in.rho;
  return std::clamp(unconstrained, 0.0, in.mu_max);
}

double solve_nu_block(const NuBlockInputs& in) {
  UFC_EXPECTS(in.emission_cost != nullptr);
  UFC_EXPECTS(in.rho > 0.0);
  UFC_EXPECTS(in.carbon_tons_per_mwh >= 0.0);

  const double c = in.alpha + in.beta * in.a_col_sum - in.mu;
  const double kappa = in.carbon_tons_per_mwh;

  // Derivative of V(kappa nu) + (p - phi) nu + (rho/2)(c - nu)^2:
  //   h(nu) = kappa V'(kappa nu) + p - phi + rho (nu - c),
  // monotone nondecreasing (V convex), so its root is the minimizer.
  auto h = [&](double nu) {
    return kappa * in.emission_cost->derivative(kappa * nu) + in.grid_price -
           in.phi + in.rho * (nu - c);
  };

  // h(hi) > 0 for hi = max(0, c + (phi - p)/rho) + 1 because V' >= 0.
  const double hi = std::max(0.0, c + (in.phi - in.grid_price) / in.rho) + 1.0;
  return monotone_root(h, 0.0, hi);
}

int solve_a_block_into(const ABlockInputs& in,
                       std::span<const double> warm_start,
                       std::span<double> out, BlockWorkspace& ws,
                       const InnerSolverOptions& /*options*/) {
  UFC_EXPECTS(in.rho > 0.0);
  UFC_EXPECTS(in.capacity >= 0.0);
  const std::size_t m = in.varphi_col.size();
  UFC_EXPECTS(m > 0);
  UFC_EXPECTS(in.lambda_col.size() == m);
  UFC_EXPECTS(warm_start.size() == m);
  UFC_EXPECTS(out.size() == m);

  // a(t) = P(base - beta^2 t), base = lambda - varphi / rho - shift.
  const double shift = in.beta * (in.phi / in.rho + in.alpha - in.mu - in.nu);
  ws.base.resize(m);
  double* UFC_RESTRICT base = ws.base.data();
  const double* UFC_RESTRICT lam = in.lambda_col.data();
  const double* UFC_RESTRICT varphi = in.varphi_col.data();
  const double* UFC_RESTRICT warm = warm_start.data();
  // The search starts at the previous iterate's t = sum_i a_i.
  double start = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    base[i] = lam[i] - varphi[i] / in.rho - shift;
    start += warm[i];
  }
  const double beta_sq = in.beta * in.beta;
  // As in the lambda block, out ends at the root's projection.
  int probes = 0;
  auto gap = [&](double t) {
    ++probes;
    for (std::size_t i = 0; i < m; ++i) out[i] = base[i] - beta_sq * t;
    project_capped_simplex_into(out, in.capacity, out, ws.scratch);
    double assigned = 0.0;
    for (std::size_t i = 0; i < m; ++i) assigned += out[i];
    return t - assigned;
  };
  monotone_root_from(gap, start, 0.0, in.capacity);
  return probes;
}

// ufc-lint: allow(expects-reach) — pure arithmetic on scalars already
// validated by the solver; this is the per-datacenter inner-loop dual update.
double update_phi(double phi, double rho, double alpha, double beta,
                  double a_col_sum, double mu, double nu) {
  return phi + rho * (alpha + beta * a_col_sum - mu - nu);
}

// ufc-lint: allow(expects-reach) — same as update_phi: validated-scalar
// arithmetic on the hot path.
double update_varphi(double varphi, double rho, double a, double lambda) {
  return varphi + rho * (a - lambda);
}

}  // namespace ufc::admm
