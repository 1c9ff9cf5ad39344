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

/// Secant steps the lambda block's model root takes at most.
constexpr int kModelSecantSteps = 8;

/// The lambda block's support model. On a projection support S,
/// lambda_j = base_j + p L_j - tau with tau fixed by sum_S lambda_j = A, so
/// the routed latency is affine in the pull p:
///   L . lambda = r0 + v p,   v = sum_S d_j^2 - (sum_S d_j)^2 / |S| >= 0,
/// with d_j = L_j - c for a centre c. Given the model's value `routed` at
/// the pull p(s) = pull_s, its equation is
///   y = routed + v (p(y) - pull_s),
/// which has slope at least 1 like g. Its root lies between s and the
/// slope-1 point `routed` and is found by secant steps from those two
/// points, which call u' only and need no projection; it is exact after one
/// step when u' is affine (the quadratic and linear utilities). The search
/// asks for it at the start, on the warm row's support, and after each
/// probe s, on that probe's support (routed = L . lambda(s) = s - g(s)).
double lambda_model_root(const LambdaBlockInputs& in, double v, double s,
                         double routed, double pull_s) {
  const double weight = in.latency_weight / in.rho;
  auto h = [&](double y) {
    return y - routed -
           v * (weight * in.utility->derivative(y / in.arrival) - pull_s);
  };
  double y0 = s;
  double h0 = s - routed;
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

/// v = sum_S d_j^2 - (sum_S d_j)^2 / |S| from a support's sums, 0 for an
/// empty support; clamped at 0 against rounding.
double support_spread(std::size_t count, double first, double second) {
  return count > 0 ? std::max(0.0, second - first * first /
                                           static_cast<double>(count))
                   : 0.0;
}

/// Projects `point` (in place) onto the simplex of total `total` on the
/// support S = {j : support[j] > 0}: tau = (sum_S point_j - total) / |S|,
/// and point becomes max(point - tau, 0). Returns false, with `point` as it
/// was, unless S is nonempty, point_j > tau on S and point_j <= tau off S:
/// the projection's own optimality conditions, which make the result the
/// projection itself.
bool project_on_support(std::span<double> point,
                        std::span<const double> support, double total) {
  std::size_t count = 0;
  double support_sum = 0.0;
  for (std::size_t j = 0; j < point.size(); ++j) {
    if (support[j] > 0.0) {
      ++count;
      support_sum += point[j];
    }
  }
  if (count == 0) return false;
  const double tau = (support_sum - total) / static_cast<double>(count);
  std::size_t mismatches = 0;
  for (std::size_t j = 0; j < point.size(); ++j)
    mismatches +=
        static_cast<std::size_t>((support[j] > 0.0) != (point[j] > tau));
  if (mismatches > 0) return false;
  for (double& x : point) x = std::max(x - tau, 0.0);
  return true;
}

/// What the a block's scan found: t and the number of kept entries.
struct AScan {
  double t = 0.0;
  std::size_t kept = 0;
};

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
/// and no start point. The first `kept` entries of `candidates` hold the
/// entries kept when it returns.
AScan a_block_scan(const ABlockInputs& in, std::span<double> b,
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
    if (count == 0 || t > in.capacity || smallest > threshold)
      return {.t = t, .kept = count};
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

LambdaBlockWork solve_lambda_block_into(const LambdaBlockInputs& in,
                                        std::span<const double> warm_start,
                                        std::span<double> out,
                                        BlockWorkspace& ws,
                                        const InnerSolverOptions& /*options*/) {
  UFC_EXPECTS(in.utility != nullptr);
  UFC_EXPECTS(in.rho > 0.0);
  UFC_EXPECTS(in.arrival >= 0.0);
  const std::size_t n = in.latency_row.size();
  UFC_EXPECTS(n > 0);
  UFC_EXPECTS(in.a_row.size() == n && in.varphi_row.size() == n);
  UFC_EXPECTS(warm_start.size() == n);
  UFC_EXPECTS(out.size() == n);

  LambdaBlockWork work;
  // A front-end with no arrivals routes nothing.
  if (in.arrival <= 0.0) {
    std::fill(out.begin(), out.end(), 0.0);
    return work;
  }

  // lambda(s) = P(base + pull(s) L), base = a + varphi / rho,
  // pull(s) = (w / rho) u'(s / A). The workspace never aliases the inputs,
  // so the loops run on restrict-qualified pointers. The same loop takes
  // the support model's sums over the warm row's support S, centred on the
  // latency of S's first entry: the count, sum d, sum d^2, sum d base and
  // sum base.
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
  double centre = 0.0;
  std::size_t support = 0;
  double first = 0.0;
  double second = 0.0;
  double cross = 0.0;
  double base_sum = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    base[j] = a[j] + varphi[j] / in.rho;
    lat_min = std::min(lat_min, lat[j]);
    lat_max = std::max(lat_max, lat[j]);
    lat_sum += lat[j];
    warm_sum += warm[j];
    warm_routed += warm[j] * lat[j];
    if (warm[j] > 0.0) {
      if (support == 0) centre = lat[j];
      const double d = lat[j] - centre;
      ++support;
      first += d;
      second += d * d;
      cross += d * base[j];
      base_sum += base[j];
    }
  }
  const double weight = in.latency_weight / in.rho;
  // The search starts at the root of the support model on S, where
  // L . lambda = r0 + v p with
  //   r0 = c A + sum_S d_j base_j - (sum_S d_j)(sum_S base_j - A) / |S|,
  // solved from the previous iterate's s = L . lambda rescaled to this
  // arrival. It starts at that s itself when the root is not finite
  // (std::clamp would pass a NaN through to the search), and at the mean
  // latency when the warm row routes nothing (the cold start, or a
  // front-end whose arrivals were zero).
  double start = warm_sum > 0.0
                     ? in.arrival * warm_routed / warm_sum
                     : in.arrival * lat_sum / static_cast<double>(n);
  if (support > 0) {
    const double r0 =
        centre * in.arrival + cross -
        first * (base_sum - in.arrival) / static_cast<double>(support);
    const double v = support_spread(support, first, second);
    const double pull0 = weight * in.utility->derivative(start / in.arrival);
    const double modelled =
        lambda_model_root(in, v, start, r0 + v * pull0, pull0);
    if (std::isfinite(modelled)) start = modelled;
  }

  // Each probe leaves lambda(s) in out and its pull in `pull`; the root
  // search returns at its last probe, so out ends at the root. A probe
  // projects on the support it expects when that is the projection's
  // support there: the first on S, each later one on the last probe's
  // support (a copy of the last lambda(s) in the scratch).
  if (ws.scratch.size() < n) ws.scratch.resize(n);
  const std::span<const double> last_probe(ws.scratch.data(), n);
  double pull = 0.0;
  auto gap = [&](double s) {
    if (work.probes > 0) std::copy(out.begin(), out.end(), ws.scratch.begin());
    const std::span<const double> expected =
        work.probes > 0 ? last_probe : warm_start;
    ++work.probes;
    pull = weight * in.utility->derivative(s / in.arrival);
    for (std::size_t j = 0; j < n; ++j) out[j] = base[j] + pull * lat[j];
    if (!project_on_support(out, expected, in.arrival)) {
      ++work.projections;
      project_simplex_into(out, in.arrival, out, ws.scratch);
    }
    double routed = 0.0;
    for (std::size_t j = 0; j < n; ++j) routed += out[j] * lat[j];
    return s - routed;
  };
  // Later probes go to the root of the model on the last probe's support.
  auto model = [&](double s, double g_s) {
    std::size_t count = 0;
    double origin = 0.0;
    double sum_d = 0.0;
    double sum_d2 = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (out[j] > 0.0) {
        if (count == 0) origin = lat[j];
        const double d = lat[j] - origin;
        ++count;
        sum_d += d;
        sum_d2 += d * d;
      }
    }
    return lambda_model_root(in, support_spread(count, sum_d, sum_d2), s,
                             s - g_s, pull);
  };
  monotone_root_from(gap, model, start, in.arrival * lat_min,
                     in.arrival * lat_max);
  return work;
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
  const AScan scan = a_block_scan(in, out, ws.kept);
  if (scan.t > in.capacity) {
    // The cap binds: the root is t = S_j, where a = P(b - beta^2 S_j) sums
    // to the cap, i.e. the simplex projection of b at total S_j (a common
    // shift of every entry moves no projection). Its threshold lies above
    // the uncapped beta^2 t, which no entry the scan skipped or the sweeps
    // dropped passes, so the kept entries alone fix it. A second pass: the
    // threshold of the kept entries, and the write.
    const double tau = simplex_threshold(
        std::span<const double>(ws.kept).first(scan.kept), in.capacity,
        ws.scratch);
    for (std::size_t i = 0; i < m; ++i) out[i] = std::max(out[i] - tau, 0.0);
    return 2;
  }
  const double threshold = in.beta * in.beta * scan.t;
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
