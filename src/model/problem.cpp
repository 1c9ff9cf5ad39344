#include "model/problem.hpp"

#include <algorithm>
#include <cmath>

#include "util/contract.hpp"

namespace ufc {

const ServerPowerModel& UfcProblem::power_at(std::size_t j) const {
  UFC_EXPECTS(j < datacenters.size());
  return datacenters[j].power_override ? *datacenters[j].power_override
                                       : power;
}

double UfcProblem::alpha_mw(std::size_t j) const {
  UFC_EXPECTS(j < datacenters.size());
  return power_alpha_mw(datacenters[j].servers, power_at(j),
                        datacenters[j].pue);
}

double UfcProblem::beta_mw(std::size_t j) const {
  UFC_EXPECTS(j < datacenters.size());
  return power_beta_mw(power_at(j), datacenters[j].pue);
}

double UfcProblem::demand_mw(std::size_t j, double workload) const {
  UFC_EXPECTS(j < datacenters.size());
  return power_demand_mw(datacenters[j].servers, power_at(j),
                         datacenters[j].pue, workload);
}

double UfcProblem::total_arrivals() const {
  double total = 0.0;
  for (double a : arrivals) total += a;
  return total;
}

double UfcProblem::total_server_capacity() const {
  double total = 0.0;
  for (const auto& dc : datacenters) total += dc.servers;
  return total;
}

double UfcProblem::max_latency_s() const {
  double m = 0.0;
  for (double l : latency_s.raw()) m = std::max(m, l);
  return m;
}

double UfcProblem::average_latency_s(
    std::size_t i, std::span<const double> lambda_row) const {
  UFC_EXPECTS(i < arrivals.size());
  UFC_EXPECTS(lambda_row.size() == num_datacenters());
  if (arrivals[i] <= 0.0) return 0.0;
  double weighted = 0.0;
  for (std::size_t j = 0; j < lambda_row.size(); ++j)
    weighted += lambda_row[j] * latency_s(i, j);
  return weighted / arrivals[i];
}

void UfcProblem::validate() const {
  UFC_EXPECTS(!datacenters.empty());
  UFC_EXPECTS(!arrivals.empty());
  UFC_EXPECTS(latency_s.rows() == num_front_ends());
  UFC_EXPECTS(latency_s.cols() == num_datacenters());
  UFC_EXPECTS(utility != nullptr);
  UFC_EXPECTS(fuel_cell_price >= 0.0);
  UFC_EXPECTS(latency_weight >= 0.0);
  UFC_EXPECTS(power.peak_watts >= power.idle_watts);
  UFC_EXPECTS(power.idle_watts >= 0.0);

  for (const auto& dc : datacenters) {
    UFC_EXPECTS(dc.servers > 0.0);
    UFC_EXPECTS(dc.pue >= 1.0);
    UFC_EXPECTS(dc.grid_price >= 0.0);
    UFC_EXPECTS(dc.carbon_rate >= 0.0);
    UFC_EXPECTS(dc.fuel_cell_capacity_mw >= 0.0);
    UFC_EXPECTS(dc.emission_cost != nullptr);
    if (dc.power_override) {
      UFC_EXPECTS(dc.power_override->idle_watts >= 0.0);
      UFC_EXPECTS(dc.power_override->peak_watts >=
                  dc.power_override->idle_watts);
    }
  }
  for (double a : arrivals) UFC_EXPECTS(a >= 0.0);
  for (double l : latency_s.raw()) UFC_EXPECTS(l >= 0.0);

  // Feasibility of constraints (4)-(5): total work must fit somewhere.
  UFC_EXPECTS(total_arrivals() <= total_server_capacity());
}

Vec grid_draw_mw(const UfcProblem& problem, const Mat& lambda, const Vec& mu) {
  UFC_EXPECTS(lambda.rows() == problem.num_front_ends());
  UFC_EXPECTS(lambda.cols() == problem.num_datacenters());
  UFC_EXPECTS(mu.size() == problem.num_datacenters());
  Vec nu(problem.num_datacenters());
  for (std::size_t j = 0; j < nu.size(); ++j)
    nu[j] = problem.demand_mw(j, lambda.col_sum(j)) - mu[j];
  return nu;
}

double constraint_violation(const UfcProblem& problem, const Mat& lambda,
                            const Vec& mu) {
  double violation = 0.0;
  // Load balance (4): row sums equal arrivals.
  for (std::size_t i = 0; i < problem.num_front_ends(); ++i)
    violation = std::max(violation,
                         std::abs(lambda.row_sum(i) - problem.arrivals[i]));
  // Capacity (5): column sums within server counts.
  for (std::size_t j = 0; j < problem.num_datacenters(); ++j)
    violation = std::max(
        violation, lambda.col_sum(j) - problem.datacenters[j].servers);
  // Power balance (6): non-negative grid draw.
  const Vec nu = grid_draw_mw(problem, lambda, mu);
  for (double v : nu) violation = std::max(violation, -v);
  // Variable bounds.
  for (double l : lambda.raw()) violation = std::max(violation, -l);
  for (std::size_t j = 0; j < mu.size(); ++j) {
    violation = std::max(violation, -mu[j]);
    violation = std::max(
        violation, mu[j] - problem.datacenters[j].fuel_cell_capacity_mw);
  }
  return std::max(violation, 0.0);
}

}  // namespace ufc
