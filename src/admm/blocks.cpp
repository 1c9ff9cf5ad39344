#include "admm/blocks.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "math/projections.hpp"
#include "opt/scalar.hpp"
#include "util/contract.hpp"
#include "util/restrict.hpp"

namespace ufc::admm {

namespace {

/// Secant steps the lambda block's model step takes at most.
constexpr int kModelSecantSteps = 8;

/// The lambda block's next probe after a probe at s left lambda(s) in
/// `lambda`, with g(s) = s - L . lambda(s) and the pull p(s) it projected at.
/// On the support S of lambda(s), lambda_j = base_j + p L_j - tau with tau
/// fixed by sum_S lambda_j = A, so the routed latency is affine in the pull:
///   L . lambda(y) = L . lambda(s) + v (p(y) - p(s)),
///   v = sum_S L_j^2 - (sum_S L_j)^2 / |S| >= 0,
/// for every y whose projection keeps the support S. The model's root,
/// y = L . lambda(s) + v (p(y) - p(s)), lies between s and the slope-1
/// point s - g(s) (the model equation has slope at least 1, like g); it is
/// found by secant steps from those two points, which calls u' only and
/// needs no projection, and is exact after one step when u' is affine (the
/// quadratic and linear utilities). The support sums are centred on the
/// row's mean latency, which keeps v's cancellation small.
double lambda_model_step(const LambdaBlockInputs& in,
                         std::span<const double> lambda, double latency_mean,
                         double s, double g_s, double pull_s) {
  double support = 0.0;
  double first = 0.0;
  double second = 0.0;
  for (std::size_t j = 0; j < lambda.size(); ++j) {
    if (lambda[j] > 0.0) {
      const double d = in.latency_row[j] - latency_mean;
      support += 1.0;
      first += d;
      second += d * d;
    }
  }
  const double v =
      support > 0.0 ? std::max(0.0, second - first * first / support) : 0.0;
  const double routed = s - g_s;
  const double weight = in.latency_weight / in.rho;
  auto h = [&](double y) {
    return y - routed -
           v * (weight * in.utility->derivative(y / in.arrival) - pull_s);
  };
  double y0 = s;
  double h0 = g_s;
  double y1 = routed;
  double h1 = h(y1);
  for (int k = 0; k < kModelSecantSteps; ++k) {
    // ufc-lint: allow(float-equal) — exact guards: y1 is the model's root,
    // or the secant through the two points is flat.
    if (h1 == 0.0 || h1 == h0) break;
    const double step = h1 * (y1 - y0) / (h1 - h0);
    y0 = y1;
    h0 = h1;
    y1 -= step;
    if (std::abs(step) <= kRootTolerance * (1.0 + std::abs(y1))) break;
    h1 = h(y1);
  }
  return y1;
}

/// The a block's scan (eq. (20)): writes b = lambda - varphi / rho - shift
/// into `b` and returns the root t = S_K / (1 + |K| beta^2) of the uncapped
/// equation, S_K = sum_K b_i over the support K = {i : b_i > beta^2 t}, or
/// the first t of a kept set above `in.capacity`, which proves the cap
/// binds (t only grows toward the root as the sweeps drop entries).
///
/// The scan keeps each b_i above the running threshold beta^2 S / (1 + k
/// beta^2) of the k entries kept so far (summing to S). A kept entry raises
/// that threshold, which never passes the final beta^2 t (the support
/// maximizes it), so a skipped entry is never in K. Michelot sweeps over
/// the kept entries then drop those at or below the threshold, which only
/// grows as entries drop, until the smallest survivor is above it: no sort
/// and no start point. `candidates` holds the kept entries.
double a_block_scan(const ABlockInputs& in, std::span<double> b,
                    std::vector<double>& candidates) {
  const std::size_t m = b.size();
  if (candidates.size() < m) candidates.resize(m);
  double* UFC_RESTRICT kept = candidates.data();
  const double* UFC_RESTRICT lam = in.lambda_col.data();
  const double* UFC_RESTRICT varphi = in.varphi_col.data();
  const double shift = in.beta * (in.phi / in.rho + in.alpha - in.mu - in.nu);
  const double beta_sq = in.beta * in.beta;
  std::size_t count = 0;
  double total = 0.0;
  double smallest = std::numeric_limits<double>::infinity();
  // The running threshold as the ratio beta^2 S / (1 + k beta^2), compared
  // without a division per entry.
  double scaled_total = 0.0;
  double scaled_count = 1.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double value = lam[i] - varphi[i] / in.rho - shift;
    b[i] = value;
    if (value * scaled_count > scaled_total) {
      smallest = std::min(smallest, value);
      kept[count++] = value;
      total += value;
      scaled_total += beta_sq * value;
      scaled_count += beta_sq;
    }
  }
  for (;;) {
    const double t = total / (1.0 + static_cast<double>(count) * beta_sq);
    const double threshold = beta_sq * t;
    if (count == 0 || t > in.capacity || smallest > threshold) return t;
    const std::size_t before = count;
    count = 0;
    total = 0.0;
    smallest = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < before; ++k) {
      const double value = kept[k];
      if (value > threshold) {
        smallest = std::min(smallest, value);
        kept[count++] = value;
        total += value;
      }
    }
  }
}

}  // namespace

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
  const double lat_mean = lat_sum / static_cast<double>(n);
  // The search starts at the previous iterate's s = L . lambda, rescaled to
  // this arrival, or at the mean latency when that row routes nothing (the
  // cold start, or a front-end whose arrivals were zero).
  const double start = warm_sum > 0.0 ? in.arrival * warm_routed / warm_sum
                                      : in.arrival * lat_mean;
  const double weight = in.latency_weight / in.rho;
  // Each probe leaves lambda(s) in out and its pull in `pull`; the root
  // search returns at its last probe, so out ends at the root.
  int probes = 0;
  double pull = 0.0;
  auto gap = [&](double s) {
    ++probes;
    pull = weight * in.utility->derivative(s / in.arrival);
    for (std::size_t j = 0; j < n; ++j) out[j] = base[j] + pull * lat[j];
    project_simplex_into(out, in.arrival, out, ws.scratch);
    double routed = 0.0;
    for (std::size_t j = 0; j < n; ++j) routed += out[j] * lat[j];
    return s - routed;
  };
  auto model = [&](double s, double g_s) {
    return lambda_model_step(in, out, lat_mean, s, g_s, pull);
  };
  monotone_root_from(gap, model, start, in.arrival * lat_min,
                     in.arrival * lat_max);
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
                       std::span<const double> /*warm_start*/,
                       std::span<double> out, BlockWorkspace& ws,
                       const InnerSolverOptions& /*options*/) {
  UFC_EXPECTS(in.rho > 0.0);
  UFC_EXPECTS(in.capacity >= 0.0);
  const std::size_t m = in.varphi_col.size();
  UFC_EXPECTS(m > 0);
  UFC_EXPECTS(in.lambda_col.size() == m);
  UFC_EXPECTS(out.size() == m);

  // a(t) = P(b - beta^2 t); the scan leaves b in out.
  const double t = a_block_scan(in, out, ws.scratch);
  if (t > in.capacity) {
    // The cap binds: the root is t = S_j, where a = P(b - beta^2 S_j) sums
    // to the cap, i.e. the simplex projection of b at total S_j (a common
    // shift of every entry moves no projection). A second pass.
    project_simplex_into(out, in.capacity, out, ws.scratch);
    return 2;
  }
  const double threshold = in.beta * in.beta * t;
  for (std::size_t i = 0; i < m; ++i)
    out[i] = std::max(out[i] - threshold, 0.0);
  return 1;
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
