// Centralized reference solver for the UFC program.
//
// Serves two purposes:
//  1. a validation oracle for ADM-G (tests compare objectives), and
//  2. the "gradient or projection based method" baseline whose iteration
//     counts the paper's Fig. 11 discussion contrasts with ADM-G's.
//
// Method: eliminate (mu, nu) — for a fixed routing lambda the optimal
// fuel-cell dispatch decouples per datacenter into a scalar convex problem
// with an exact solution — then run projected subgradient on the reduced
// convex objective F(lambda) over the transportation polytope
//   { lambda >= 0, row sums = A_i, column sums <= S_j },
// projecting with Dykstra's algorithm (the polytope has no closed-form
// projection).
#pragma once

#include "math/matrix.hpp"
#include "model/breakdown.hpp"
#include "model/problem.hpp"

namespace ufc::admm {

/// Exact single-datacenter fuel-cell dispatch for a given demand (MW):
/// minimizes p0*mu + p*(D-mu) + V(kappa*(D-mu)) over 0 <= mu <= min(mu_max, D).
double optimal_dispatch_mw(const DatacenterSpec& dc, double fuel_cell_price,
                           double demand_mw);

struct CentralizedOptions {
  int max_iterations = 4000;    ///< Outer subgradient iterations.
  double step0 = 0.0;           ///< 0: auto-scale from problem magnitudes.
  int dykstra_sweeps = 200;     ///< Per-projection Dykstra passes.
  /// Pin blocks exactly as the ADM-G baselines do.
  bool grid_only = false;       ///< Force mu = 0.
  bool fuel_cell_only = false;  ///< Force nu = 0 (mu = demand).
};

struct CentralizedResult {
  UfcSolution solution;
  UfcBreakdown breakdown;
  double objective = 0.0;  ///< UFC at the returned point.
  int iterations = 0;
};

/// Solves the UFC program by projected subgradient on the reduced objective.
/// Intended as an oracle: slower but independent of the ADMM machinery.
CentralizedResult solve_centralized(const UfcProblem& problem,
                                    const CentralizedOptions& options = {});

/// Projects a routing matrix onto the transportation polytope of `problem`
/// using Dykstra's algorithm (exposed for tests).
Mat project_routing(const UfcProblem& problem, const Mat& lambda,
                    int max_sweeps = 200);

/// First-order optimality residual of a routing matrix for the reduced
/// problem:  max_ij | lambda - Proj_C(lambda - step * subgrad F(lambda)) |
/// normalized by the largest arrival. Near zero iff lambda is optimal
/// (fixed-point characterization of projected gradient). The strategy flags
/// must match those used to produce `lambda`.
double routing_optimality_residual(const UfcProblem& problem,
                                   const Mat& lambda, double step = 1e-3,
                                   bool grid_only = false,
                                   bool fuel_cell_only = false);

}  // namespace ufc::admm
