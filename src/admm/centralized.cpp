#include "admm/centralized.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "math/dykstra.hpp"
#include "math/projections.hpp"
#include "opt/scalar.hpp"
#include "opt/subgradient.hpp"
#include "util/contract.hpp"

namespace ufc::admm {

namespace {

constexpr double kKgPerTon = 1000.0;

/// Central finite difference of EmissionCostFunction::derivative — the
/// second-order information the model interface deliberately does not
/// expose (V'' would constrain every policy implementation for the benefit
/// of one backend). The Newton CG only needs bounded, symmetric-ish
/// curvature, which a two-point stencil of the exact first derivative
/// provides; convexity is clamped (V convex => V'' >= 0 up to noise).
double emission_second_derivative(const EmissionCostFunction& cost,
                                  double tons) {
  const double h = 1e-4 * std::max(1.0, std::abs(tons));
  const double upper = cost.derivative(tons + h);
  const double lower = cost.derivative(std::max(0.0, tons - h));
  return std::max(0.0, (upper - lower) / (2.0 * h));
}

/// Same stencil for UtilityFunction::derivative; concavity is clamped
/// (U'' <= 0), which keeps the utility Hessian block PSD in the reduced
/// *minimization* objective.
double utility_second_derivative(const UtilityFunction& utility,
                                 double latency_s) {
  const double h = 1e-6 * std::max(1.0, std::abs(latency_s));
  const double upper = utility.derivative(latency_s + h);
  const double lower = utility.derivative(std::max(0.0, latency_s - h));
  return std::min(0.0, (upper - lower) / (2.0 * h));
}

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
      const Vec row = lambda.row(i);
      total -= p_.latency_weight * p_.arrivals[i] *
               p_.utility->value(p_.average_latency_s(i, row));
    }
    return total;
  }

  /// Generalized second derivative d^2 g / dD^2 of the grid-side cost at
  /// the optimal dispatch, by the envelope-theorem cases of marginal():
  /// with the dispatch mu pinned at a bound the extra demand flows to the
  /// grid (curvature kappa^2 V''(kappa nu)); with mu interior, the root
  /// condition kappa V'(kappa nu) = p0 - p holds on a neighborhood, so the
  /// marginal is locally constant; with nu = 0 the marginal is the flat
  /// fuel-cell price.
  double demand_curvature(std::size_t j, double demand) const {
    if (fuel_cell_only_) return 0.0;
    const auto& dc = p_.datacenters[j];
    const double kappa = dc.carbon_rate / kKgPerTon;
    if (grid_only_)
      return kappa * kappa *
             emission_second_derivative(*dc.emission_cost, kappa * demand);
    const double mu = dispatch(j, demand);
    const double nu = std::max(0.0, demand - mu);
    if (nu <= 1e-12) return 0.0;
    const double hi = std::min(dc.fuel_cell_capacity_mw, demand);
    const bool pinned = mu <= 1e-12 || mu >= hi - 1e-12;
    if (!pinned) return 0.0;
    return kappa * kappa *
           emission_second_derivative(*dc.emission_cost, kappa * nu);
  }

  /// Generalized-Hessian-vector product of the reduced objective at x. The
  /// Hessian is a sum of rank-structured pieces — per datacenter
  /// beta_j^2 g_j'' (1 1^T) over column j, per front-end
  /// (-w U''(Lbar_i) / A_i) l_i l_i^T over row i — so the product is two
  /// O(MN) passes, never a formed matrix.
  Vec hessian_vec(const Vec& x, const Vec& v) const {
    const std::size_t m = p_.num_front_ends();
    const std::size_t n = p_.num_datacenters();
    const Mat lambda = vec_to_mat(x, m, n);
    Vec out(m * n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      const double demand = p_.demand_mw(j, lambda.col_sum(j));
      const double beta = p_.beta_mw(j);
      const double curvature = beta * beta * demand_curvature(j, demand);
      if (curvature <= 0.0) continue;
      double column_sum = 0.0;
      for (std::size_t i = 0; i < m; ++i) column_sum += v[i * n + j];
      const double add = curvature * column_sum;
      for (std::size_t i = 0; i < m; ++i) out[i * n + j] += add;
    }
    for (std::size_t i = 0; i < m; ++i) {
      if (p_.arrivals[i] <= 0.0) continue;
      const Vec row = lambda.row(i);
      const double upp = utility_second_derivative(
          *p_.utility, p_.average_latency_s(i, row));
      if (upp >= 0.0) continue;
      const double factor = -p_.latency_weight * upp / p_.arrivals[i];
      double along = 0.0;
      for (std::size_t j = 0; j < n; ++j)
        along += p_.latency_s(i, j) * v[i * n + j];
      for (std::size_t j = 0; j < n; ++j)
        out[i * n + j] += factor * along * p_.latency_s(i, j);
    }
    return out;
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
      const Vec row = lambda.row(i);
      const double uprime =
          p_.utility->derivative(p_.average_latency_s(i, row));
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

namespace {

/// Proportional start shared by both backends: each front-end spreads its
/// load over datacenters proportionally to capacity.
Mat proportional_start(const UfcProblem& problem) {
  const std::size_t m = problem.num_front_ends();
  const std::size_t n = problem.num_datacenters();
  Mat start(m, n);
  const double total_capacity = problem.total_server_capacity();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      start(i, j) = problem.arrivals[i] * problem.datacenters[j].servers /
                    total_capacity;
  return start;
}

/// Completes a CentralizedResult from the routing a backend produced:
/// re-derive the optimal dispatch, the grid draws and the breakdown.
CentralizedResult package_routing(const UfcProblem& problem,
                                  const ReducedProblem& reduced, Mat lambda) {
  CentralizedResult result;
  result.solution.lambda = std::move(lambda);
  const std::size_t n = problem.num_datacenters();
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
  return result;
}

CentralizedResult run_subgradient(const UfcProblem& problem,
                                  const CentralizedOptions& options) {
  problem.validate();
  const std::size_t m = problem.num_front_ends();
  const std::size_t n = problem.num_datacenters();
  const ReducedProblem reduced(problem, options.grid_only,
                               options.fuel_cell_only);

  auto project = [&](const Vec& x) {
    return mat_to_vec(
        project_routing(problem, vec_to_mat(x, m, n), options.dykstra_sweeps));
  };

  SubgradientOptions sg;
  sg.max_iterations = options.max_iterations;
  // Auto step: proportional to the workload magnitude so the first steps can
  // move a meaningful fraction of the routing mass.
  sg.step0 = options.step0 > 0.0
                 ? options.step0
                 : 0.1 * std::max(1.0, problem.total_arrivals());

  const auto sg_result = projected_subgradient(
      mat_to_vec(proportional_start(problem)),
      [&](const Vec& x) { return reduced.subgradient(x); },
      [&](const Vec& x) { return reduced.value(x); }, project, sg);

  CentralizedResult result =
      package_routing(problem, reduced, vec_to_mat(sg_result.best_x, m, n));
  result.iterations = sg_result.iterations;
  return result;
}

CentralizedResult run_newton(const UfcProblem& problem,
                             const CentralizedOptions& options) {
  problem.validate();
  const std::size_t m = problem.num_front_ends();
  const std::size_t n = problem.num_datacenters();
  const ReducedProblem reduced(problem, options.grid_only,
                               options.fuel_cell_only);

  auto project = [&](const Vec& x) {
    return mat_to_vec(
        project_routing(problem, vec_to_mat(x, m, n), options.dykstra_sweeps));
  };

  // The generic solver works in raw routing units; scale the dimensionless
  // tolerance by the largest arrival, the same normalization
  // routing_optimality_residual divides by.
  double max_arrival = 1.0;
  for (double a : problem.arrivals) max_arrival = std::max(max_arrival, a);
  NewtonOptions newton = options.newton;
  newton.tolerance = options.newton.tolerance * max_arrival;

  const auto nr = projected_newton(
      mat_to_vec(proportional_start(problem)),
      [&](const Vec& x) { return reduced.value(x); },
      [&](const Vec& x) { return reduced.subgradient(x); },
      [&](const Vec& x, const Vec& v) { return reduced.hessian_vec(x, v); },
      project, newton);

  CentralizedResult result =
      package_routing(problem, reduced, vec_to_mat(nr.x, m, n));
  result.iterations = nr.iterations;
  result.converged = nr.converged;
  return result;
}

class SubgradientMethod final : public CentralizedMethod {
 public:
  explicit SubgradientMethod(const CentralizedOptions& options)
      : options_(options) {}
  std::string_view name() const override { return "subgradient"; }
  CentralizedResult solve(const UfcProblem& problem) const override {
    return run_subgradient(problem, options_);
  }

 private:
  CentralizedOptions options_;
};

class NewtonMethod final : public CentralizedMethod {
 public:
  explicit NewtonMethod(const CentralizedOptions& options)
      : options_(options) {}
  std::string_view name() const override { return "newton"; }
  CentralizedResult solve(const UfcProblem& problem) const override {
    return run_newton(problem, options_);
  }

 private:
  CentralizedOptions options_;
};

}  // namespace

Registry<CentralizedMethod, CentralizedOptions> centralized_registry() {
  Registry<CentralizedMethod, CentralizedOptions> registry(
      "centralized method");
  registry.add("subgradient", [](const CentralizedOptions& options) {
    return std::unique_ptr<CentralizedMethod>(
        std::make_unique<SubgradientMethod>(options));
  });
  registry.add("newton", [](const CentralizedOptions& options) {
    return std::unique_ptr<CentralizedMethod>(
        std::make_unique<NewtonMethod>(options));
  });
  return registry;
}

CentralizedResult solve_centralized(const UfcProblem& problem,
                                    const CentralizedOptions& options) {
  UFC_EXPECTS(options.max_iterations > 0);
  UFC_EXPECTS(options.dykstra_sweeps > 0);
  UFC_EXPECTS(!(options.grid_only && options.fuel_cell_only));
  return centralized_registry().create(options.method, options)->solve(problem);
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
