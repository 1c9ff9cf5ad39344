// The single-slot UFC maximization instance (paper §II-C, problem (3)).
//
// A UfcProblem bundles everything problem (3) needs for one time slot:
// datacenter parameters (capacity, PUE, grid price p_j, carbon rate C_j,
// fuel-cell capacity mu_max_j, emission cost V_j), front-end arrivals A_i,
// the latency matrix L_ij, the fuel-cell price p_0, the latency weight w and
// the utility shape U.
//
// Decision variables:
//   lambda  (M x N)  requests routed from front-end i to datacenter j
//   mu      (N)      fuel-cell generation, MW
//   nu      (N)      grid draw, MW: nu_j = alpha_j + beta_j sum_i lambda_ij - mu_j
//
// Units: power MW, energy MWh (1-hour slots), prices $/MWh, carbon rate
// kg/MWh, emissions tons, latency seconds, workload "servers required".
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "math/matrix.hpp"
#include "math/vector.hpp"
#include "model/emission.hpp"
#include "model/power.hpp"
#include "model/utility.hpp"

namespace ufc {

/// Static description of one datacenter for one slot.
struct DatacenterSpec {
  std::string name;
  double servers = 0.0;                ///< S_j, capacity in servers.
  double pue = 1.2;                    ///< Power usage effectiveness.
  double grid_price = 0.0;             ///< p_j, $/MWh, this slot.
  double carbon_rate = 0.0;            ///< C_j, kg CO2 per MWh, this slot.
  double fuel_cell_capacity_mw = 0.0;  ///< mu_max_j, MW.
  /// V_j; shared so specs stay cheaply copyable. Must not be null.
  std::shared_ptr<const EmissionCostFunction> emission_cost;
  /// Heterogeneous-fleet extension (paper §II-A: the model "can be easily
  /// extended to capture the heterogeneous case"): a per-datacenter server
  /// power envelope overriding UfcProblem::power when set.
  std::optional<ServerPowerModel> power_override;
};

/// One slot of the UFC maximization problem.
struct UfcProblem {
  std::vector<DatacenterSpec> datacenters;  ///< size N
  std::vector<double> arrivals;             ///< A_i, size M, servers
  Mat latency_s;                            ///< L_ij, M x N, seconds
  double fuel_cell_price = 80.0;            ///< p_0, $/MWh
  double latency_weight = 10.0;             ///< w, $/s^2
  std::shared_ptr<const UtilityFunction> utility;  ///< U's shape u(l)
  ServerPowerModel power;                   ///< P_idle / P_peak

  std::size_t num_datacenters() const { return datacenters.size(); }
  std::size_t num_front_ends() const { return arrivals.size(); }

  /// The server power envelope in effect at datacenter j (override or the
  /// fleet-wide default).
  const ServerPowerModel& power_at(std::size_t j) const;

  /// alpha_j in MW (idle power of all servers, PUE-scaled).
  double alpha_mw(std::size_t j) const;
  /// beta_j in MW per unit workload.
  double beta_mw(std::size_t j) const;
  /// alpha_j + beta_j * workload, MW.
  double demand_mw(std::size_t j, double workload) const;

  double total_arrivals() const;
  double total_server_capacity() const;
  /// Largest entry of the latency matrix, seconds.
  double max_latency_s() const;

  /// Request-weighted average latency at front-end i for routing row
  /// lambda_i, in seconds. Zero-arrival front-ends report zero. The row is
  /// a view (Mat::row_span), so no caller copies it.
  double average_latency_s(std::size_t i,
                           std::span<const double> lambda_row) const;

  /// Throws ContractViolation if the instance is malformed or infeasible
  /// (e.g. null function pointers, negative arrivals, total arrivals
  /// exceeding total server capacity, dimension mismatches).
  void validate() const;
};

/// A candidate operating point. nu is derived but stored for inspection.
struct UfcSolution {
  Mat lambda;  ///< M x N routing.
  Vec mu;      ///< N fuel-cell outputs, MW.
  Vec nu;      ///< N grid draws, MW.
};

/// Computes nu_j = alpha_j + beta_j sum_i lambda_ij - mu_j for all j.
Vec grid_draw_mw(const UfcProblem& problem, const Mat& lambda, const Vec& mu);

/// Maximum violation of all constraints (4)-(6) plus variable bounds, for
/// feasibility checks; 0 for exactly feasible points.
double constraint_violation(const UfcProblem& problem, const Mat& lambda,
                            const Vec& mu);

}  // namespace ufc
