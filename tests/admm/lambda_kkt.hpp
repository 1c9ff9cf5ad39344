// The eq. (17) optimality check of the engine's lambda predictions, shared by
// the default-path and the accelerated cross-validation tests.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "admm/admg.hpp"
#include "math/sort_projection.hpp"
#include "opt/kkt.hpp"

namespace ufc::testing {

/// Validates every lambda row of the solver's next prediction as a
/// projected-gradient fixed point of its sub-problem (eq. (17)), built from
/// a snapshot of the (a, varphi) state the step consumes, projecting with
/// the test-side sort oracle. The check runs over the full row, so a wrong
/// projection threshold or a coordinate the solve left out both show up.
inline void expect_lambda_rows_kkt_optimal(admm::AdmgSolver& solver) {
  const Mat a_snap = solver.a();
  const Mat varphi_snap = solver.varphi();
  solver.step();
  const Mat& lambda = solver.lambda();
  const UfcProblem& p = solver.problem();
  const std::size_t n = p.num_datacenters();
  const double rho = solver.options().rho;
  for (std::size_t i = 0; i < p.num_front_ends(); ++i) {
    const double arrival = p.arrivals[i];
    if (arrival <= 0.0) continue;
    Vec row(n);
    for (std::size_t j = 0; j < n; ++j) row[j] = lambda(i, j);
    auto gradient = [&](const Vec& x) {
      double avg_latency = 0.0;
      for (std::size_t j = 0; j < n; ++j)
        avg_latency += x[j] * p.latency_s(i, j);
      avg_latency /= arrival;
      const double uprime = p.utility->derivative(avg_latency);
      Vec g(n);
      for (std::size_t j = 0; j < n; ++j)
        g[j] = -p.latency_weight * uprime * p.latency_s(i, j) -
               varphi_snap(i, j) - rho * (a_snap(i, j) - x[j]);
      return g;
    };
    auto project = [&](const Vec& x) {
      return sort_project_simplex(x, arrival);
    };
    const auto check = check_first_order_optimality(row, gradient, project,
                                                    1e-6, 1e-5, arrival);
    EXPECT_TRUE(check.passed) << "row " << i << " residual " << check.residual;
  }
}

}  // namespace ufc::testing
