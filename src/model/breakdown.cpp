#include "model/breakdown.hpp"

#include <algorithm>
#include <cmath>

#include "util/contract.hpp"

namespace ufc {

namespace {
constexpr double kKgPerTon = 1000.0;
}

UfcBreakdown evaluate(const UfcProblem& problem, const Mat& lambda,
                      const Vec& mu) {
  UFC_EXPECTS(lambda.rows() == problem.num_front_ends());
  UFC_EXPECTS(lambda.cols() == problem.num_datacenters());
  UFC_EXPECTS(mu.size() == problem.num_datacenters());

  UfcBreakdown out;

  // Workload utility.
  double latency_weighted = 0.0;
  for (std::size_t i = 0; i < problem.num_front_ends(); ++i) {
    const double avg_latency =
        problem.average_latency_s(i, lambda.row_span(i));
    out.utility += problem.latency_weight * problem.arrivals[i] *
                   problem.utility->value(avg_latency);
    latency_weighted += problem.arrivals[i] * avg_latency;
  }
  const double total_arrivals = problem.total_arrivals();
  out.avg_latency_ms =
      total_arrivals > 0.0 ? 1e3 * latency_weighted / total_arrivals : 0.0;

  // Energy and carbon.
  for (std::size_t j = 0; j < problem.num_datacenters(); ++j) {
    const auto& dc = problem.datacenters[j];
    const double demand = problem.demand_mw(j, lambda.col_sum(j));
    const double nu = std::max(0.0, demand - mu[j]);
    const double tons = nu * dc.carbon_rate / kKgPerTon;

    out.demand_mwh += demand;
    out.fuel_cell_mwh += mu[j];
    out.grid_mwh += nu;
    out.grid_cost += dc.grid_price * nu;
    out.fuel_cell_cost += problem.fuel_cell_price * mu[j];
    out.carbon_tons += tons;
    out.carbon_cost += dc.emission_cost->value(tons);
  }
  out.energy_cost = out.grid_cost + out.fuel_cell_cost;
  out.ufc = out.utility - out.energy_cost - out.carbon_cost;
  out.utilization =
      out.demand_mwh > 0.0 ? out.fuel_cell_mwh / out.demand_mwh : 0.0;
  return out;
}

double ufc_objective(const UfcProblem& problem, const Mat& lambda,
                     const Vec& mu) {
  return evaluate(problem, lambda, mu).ufc;
}

double min_objective(const UfcProblem& problem, const Mat& lambda,
                     const Vec& mu, const Vec& nu) {
  UFC_EXPECTS(nu.size() == problem.num_datacenters());
  double total = 0.0;
  for (std::size_t j = 0; j < problem.num_datacenters(); ++j) {
    const auto& dc = problem.datacenters[j];
    const double tons = nu[j] * dc.carbon_rate / kKgPerTon;
    total += dc.emission_cost->value(tons) + dc.grid_price * nu[j] +
             problem.fuel_cell_price * mu[j];
  }
  for (std::size_t i = 0; i < problem.num_front_ends(); ++i) {
    total -= problem.latency_weight * problem.arrivals[i] *
             problem.utility->value(
                 problem.average_latency_s(i, lambda.row_span(i)));
  }
  return total;
}

double improvement_percent(double ufc_x, double ufc_y) {
  const double denom = std::abs(ufc_y);
  // ufc-lint: allow(float-equal) — exact-zero guard before division.
  if (denom == 0.0) return 0.0;
  return 100.0 * (ufc_x - ufc_y) / denom;
}

}  // namespace ufc
