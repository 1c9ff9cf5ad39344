#include "admm/centralized.hpp"

#include <algorithm>
#include <cmath>

#include "math/dykstra.hpp"
#include "math/projections.hpp"
#include "opt/scalar.hpp"
#include "opt/subgradient.hpp"
#include "util/contract.hpp"

namespace ufc::admm {

namespace {

constexpr double kKgPerTon = 1000.0;

Mat vec_to_mat(const Vec& v, std::size_t rows, std::size_t cols) {
  Mat m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = v[r * cols + c];
  return m;
}

Vec mat_to_vec(const Mat& m) { return Vec(m.raw()); }

/// The UFC program with (mu, nu) eliminated: a convex minimization in the
/// routing matrix alone. Shared by the solver and the optimality checker.
class ReducedProblem {
 public:
  ReducedProblem(const UfcProblem& problem, bool grid_only,
                 bool fuel_cell_only)
      : p_(problem), grid_only_(grid_only), fuel_cell_only_(fuel_cell_only) {
    UFC_EXPECTS(!(grid_only && fuel_cell_only));
  }

  double dispatch(std::size_t j, double demand) const {
    if (grid_only_) return 0.0;
    if (fuel_cell_only_) return demand;
    return optimal_dispatch_mw(p_.datacenters[j], p_.fuel_cell_price, demand);
  }

  /// Marginal grid-side cost dg/dD at the optimal dispatch (envelope).
  double marginal(std::size_t j, double demand, double mu) const {
    const auto& dc = p_.datacenters[j];
    const double kappa = dc.carbon_rate / kKgPerTon;
    if (grid_only_)
      return dc.grid_price + kappa * dc.emission_cost->derivative(kappa * demand);
    if (fuel_cell_only_) return p_.fuel_cell_price;
    const double nu = std::max(0.0, demand - mu);
    if (nu > 1e-12)
      return dc.grid_price + kappa * dc.emission_cost->derivative(kappa * nu);
    return p_.fuel_cell_price;
  }

  /// Reduced minimization objective: energy + carbon - w * utility.
  double value(const Vec& x) const {
    const std::size_t m = p_.num_front_ends();
    const std::size_t n = p_.num_datacenters();
    const Mat lambda = vec_to_mat(x, m, n);
    double total = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const auto& dc = p_.datacenters[j];
      const double demand = p_.demand_mw(j, lambda.col_sum(j));
      const double mu = dispatch(j, demand);
      const double nu = std::max(0.0, demand - mu);
      const double kappa = dc.carbon_rate / kKgPerTon;
      total += p_.fuel_cell_price * mu + dc.grid_price * nu +
               dc.emission_cost->value(kappa * nu);
    }
    for (std::size_t i = 0; i < m; ++i) {
      total -= p_.latency_weight * p_.arrivals[i] *
               p_.utility->value(p_.average_latency_s(i, lambda.row_span(i)));
    }
    return total;
  }

  Vec subgradient(const Vec& x) const {
    const std::size_t m = p_.num_front_ends();
    const std::size_t n = p_.num_datacenters();
    const Mat lambda = vec_to_mat(x, m, n);
    Vec g(m * n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      const double demand = p_.demand_mw(j, lambda.col_sum(j));
      const double mu = dispatch(j, demand);
      const double col_grad = p_.beta_mw(j) * marginal(j, demand, mu);
      for (std::size_t i = 0; i < m; ++i) g[i * n + j] += col_grad;
    }
    for (std::size_t i = 0; i < m; ++i) {
      if (p_.arrivals[i] <= 0.0) continue;
      const double uprime = p_.utility->derivative(
          p_.average_latency_s(i, lambda.row_span(i)));
      for (std::size_t j = 0; j < n; ++j)
        g[i * n + j] -= p_.latency_weight * uprime * p_.latency_s(i, j);
    }
    return g;
  }

 private:
  const UfcProblem& p_;
  bool grid_only_;
  bool fuel_cell_only_;
};

}  // namespace

double optimal_dispatch_mw(const DatacenterSpec& dc, double fuel_cell_price,
                           double demand_mw) {
  UFC_EXPECTS(demand_mw >= 0.0);
  UFC_EXPECTS(dc.emission_cost != nullptr);
  const double hi = std::min(dc.fuel_cell_capacity_mw, demand_mw);
  if (hi <= 0.0) return 0.0;
  const double kappa = dc.carbon_rate / kKgPerTon;
  // Derivative of p0*mu + p*(D-mu) + V(kappa*(D-mu)) with respect to mu:
  //   h(mu) = p0 - p - kappa * V'(kappa*(D-mu)),
  // nondecreasing in mu (V convex), so the minimizer is the projected root.
  auto h = [&](double mu) {
    return fuel_cell_price - dc.grid_price -
           kappa * dc.emission_cost->derivative(kappa * (demand_mw - mu));
  };
  return monotone_root(h, 0.0, hi);
}

Mat project_routing(const UfcProblem& problem, const Mat& lambda,
                    int max_sweeps) {
  const std::size_t m = problem.num_front_ends();
  const std::size_t n = problem.num_datacenters();
  UFC_EXPECTS(lambda.rows() == m && lambda.cols() == n);

  // Set 1: product of per-row simplices {row_i >= 0, sum = A_i}.
  auto project_rows = [&problem, m, n](const Vec& x) {
    Mat mat = vec_to_mat(x, m, n);
    for (std::size_t i = 0; i < m; ++i)
      mat.set_row(i, project_simplex(mat.row(i), problem.arrivals[i]));
    return mat_to_vec(mat);
  };
  // Set 2: product of per-column halfspaces {sum_i x_ij <= S_j}.
  auto project_cols = [&problem, m, n](const Vec& x) {
    Mat mat = vec_to_mat(x, m, n);
    for (std::size_t j = 0; j < n; ++j) {
      const double excess = mat.col_sum(j) - problem.datacenters[j].servers;
      if (excess > 0.0) {
        const double shift = excess / static_cast<double>(m);
        for (std::size_t i = 0; i < m; ++i) mat(i, j) -= shift;
      }
    }
    return mat_to_vec(mat);
  };

  DykstraOptions opts;
  opts.max_sweeps = max_sweeps;
  const auto result =
      dykstra_project(mat_to_vec(lambda), {project_rows, project_cols}, opts);
  return vec_to_mat(result.point, m, n);
}

CentralizedResult solve_centralized(const UfcProblem& problem,
                                    const CentralizedOptions& options) {
  UFC_EXPECTS(options.max_iterations > 0);
  UFC_EXPECTS(options.dykstra_sweeps > 0);
  UFC_EXPECTS(!(options.grid_only && options.fuel_cell_only));
  problem.validate();
  const std::size_t m = problem.num_front_ends();
  const std::size_t n = problem.num_datacenters();
  const ReducedProblem reduced(problem, options.grid_only,
                               options.fuel_cell_only);

  auto project = [&](const Vec& x) {
    return mat_to_vec(
        project_routing(problem, vec_to_mat(x, m, n), options.dykstra_sweeps));
  };

  // Proportional start: each front-end spreads its load over datacenters
  // proportionally to capacity.
  Mat start(m, n);
  const double total_capacity = problem.total_server_capacity();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      start(i, j) = problem.arrivals[i] * problem.datacenters[j].servers /
                    total_capacity;

  SubgradientOptions sg;
  sg.max_iterations = options.max_iterations;
  // Auto step: proportional to the workload magnitude so the first steps can
  // move a meaningful fraction of the routing mass.
  sg.step0 = options.step0 > 0.0
                 ? options.step0
                 : 0.1 * std::max(1.0, problem.total_arrivals());

  const auto sg_result = projected_subgradient(
      mat_to_vec(start),
      [&](const Vec& x) { return reduced.subgradient(x); },
      [&](const Vec& x) { return reduced.value(x); }, project, sg);

  // Re-derive the optimal dispatch, the grid draws and the breakdown at the
  // best routing found.
  CentralizedResult result;
  result.solution.lambda = vec_to_mat(sg_result.best_x, m, n);
  result.solution.mu = Vec(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double demand =
        problem.demand_mw(j, result.solution.lambda.col_sum(j));
    result.solution.mu[j] = reduced.dispatch(j, demand);
  }
  result.solution.nu =
      grid_draw_mw(problem, result.solution.lambda, result.solution.mu);
  result.breakdown =
      evaluate(problem, result.solution.lambda, result.solution.mu);
  result.objective = result.breakdown.ufc;
  result.iterations = sg_result.iterations;
  return result;
}

double routing_optimality_residual(const UfcProblem& problem,
                                   const Mat& lambda, double step,
                                   bool grid_only, bool fuel_cell_only) {
  UFC_EXPECTS(step > 0.0);
  const ReducedProblem reduced(problem, grid_only, fuel_cell_only);
  const Vec x = mat_to_vec(lambda);
  Vec moved = x;
  axpy(-step, reduced.subgradient(x), moved);
  const Mat projected = project_routing(
      problem, vec_to_mat(moved, lambda.rows(), lambda.cols()), 400);
  // Normalize by the largest arrival so the residual is a dimensionless
  // "fraction of a front-end's load still wanting to move".
  double max_arrival = 1.0;
  for (double a : problem.arrivals) max_arrival = std::max(max_arrival, a);
  return max_abs_diff(projected, lambda) / max_arrival;
}

}  // namespace ufc::admm
