// The four per-block sub-problems of the distributed 4-block ADM-G
// (paper §III-C, steps 1.1-1.5).
//
// Each function consumes exactly the tuple of information the paper's Fig. 2
// says the owning node has, so the monolithic solver (admm/admg.cpp) and the
// message-passing runtime (net/runtime.cpp) share one implementation and
// produce bit-identical iterates.
//
// Dual convention: we use the standard ascent  y <- y + rho * r  with
// residuals r1_j = alpha_j + beta_j sum_i a_ij - mu_j - nu_j  and
// r2_ij = a_ij - lambda_ij. (The paper prints the equivalent negated-dual
// form; the iterates coincide under phi -> -phi.)
#pragma once

#include <span>
#include <vector>

#include "math/vector.hpp"
#include "model/emission.hpp"
#include "model/utility.hpp"

namespace ufc::admm {

/// Empty: the lambda and a blocks are solved exactly, with nothing to tune.
/// Exists only because perfbench/src/layers.cpp passes
/// AdmgOptions::inner to the *_into block solvers.
struct InnerSolverOptions {};

/// Reusable scratch for the *_into block solvers, one instance per worker
/// thread. Both buffers reach their steady size on the first solve at the
/// larger of the row and column lengths and are never reallocated after:
/// Vec::resize and std::vector::resize keep capacity when shrinking.
struct BlockWorkspace {
  /// The part of the projected point that no probe changes.
  Vec base;
  /// The simplex projection's candidate lists.
  std::vector<double> scratch;
};

// ---------------------------------------------------------------------------
// Step 1.1 — lambda-minimization, one sub-problem per front-end i (eq. (17)):
//
//   min_{lambda_i in simplex(A_i)}  -w A_i u(l_i)
//        - sum_j varphi_ij lambda_ij + (rho/2) sum_j (a_ij - lambda_ij)^2
//
// The objective sees lambda_i through s = L_i . lambda_i = A_i l_i only, so
// the minimizer is
//   lambda(s) = P_simplex(A_i)(a_i + varphi_i/rho + (w/rho) u'(s/A_i) L_i)
// at the s with L_i . lambda(s) = s. For concave u the left side falls as s
// grows, so g(s) = s - L_i . lambda(s) has slope at least 1 and one root on
// [A_i min L_i, A_i max L_i]; monotone_root_from (opt/scalar.hpp) finds it
// with one projection per probe, starting at the previous iterate's s.

// The row/column inputs are non-owning views (the solver hands out
// Mat::row_span / workspace columns without copying): the backing storage
// must outlive the solve call. Assigning a temporary Vec dangles.
struct LambdaBlockInputs {
  double arrival = 0.0;                ///< A_i.
  std::span<const double> latency_row; ///< L_i1..L_iN, seconds.
  std::span<const double> a_row;       ///< a_i^k.
  std::span<const double> varphi_row;  ///< varphi_i^k.
  double rho = 0.3;
  double latency_weight = 0.0;              ///< w.
  const UtilityFunction* utility = nullptr; ///< non-owning, non-null.
};

/// Writes the exact minimizer into `out` (sized N; it must not alias the
/// inputs or `warm_start`). No heap allocation once `ws` is warm. The solve
/// is exact from any start; `warm_start` (the previous lambda_i, sized N)
/// only picks where the root search starts: at
/// s0 = A_i (L_i . warm) / sum(warm), or at A_i mean(L_i) when the row sums
/// to zero. A start near the root saves probes, not accuracy. Returns the
/// number of probes (one projection each) the search took; 0 for a
/// front-end with no arrivals.
int solve_lambda_block_into(const LambdaBlockInputs& in,
                            std::span<const double> warm_start,
                            std::span<double> out, BlockWorkspace& ws,
                            const InnerSolverOptions& options = {});

// ---------------------------------------------------------------------------
// Step 1.2 — mu-minimization, one scalar per datacenter j (eq. (18));
// closed form.

struct MuBlockInputs {
  double alpha = 0.0;             ///< alpha_j, MW.
  double beta = 0.0;              ///< beta_j, MW per workload unit.
  double a_col_sum = 0.0;         ///< sum_i a_ij^k.
  double nu = 0.0;                ///< nu_j^k (0 when the nu block is pinned).
  double phi = 0.0;               ///< phi_j^k.
  double rho = 0.3;
  double fuel_cell_price = 0.0;   ///< p_0.
  double mu_max = 0.0;            ///< mu_j^max, MW.
};

double solve_mu_block(const MuBlockInputs& in);

// ---------------------------------------------------------------------------
// Step 1.3 — nu-minimization, one scalar per datacenter j (eq. (19)):
//
//   min_{nu >= 0}  V(kappa * nu) + (p_j - phi_j) nu + (rho/2)(c - nu)^2,
//   c = alpha_j + beta_j sum_i a_ij^k - mu~_j.
//
// Solved by monotone_root on the nondecreasing derivative, so any convex V
// works (affine, capped, stepped, quadratic).

struct NuBlockInputs {
  double alpha = 0.0;
  double beta = 0.0;
  double a_col_sum = 0.0;
  double mu = 0.0;                ///< mu~_j (already updated this iteration).
  double phi = 0.0;
  double rho = 0.3;
  double grid_price = 0.0;        ///< p_j.
  double carbon_tons_per_mwh = 0.0;  ///< kappa_j = C_j / 1000.
  const EmissionCostFunction* emission_cost = nullptr;  ///< non-null.
};

double solve_nu_block(const NuBlockInputs& in);

// ---------------------------------------------------------------------------
// Step 1.4 — a-minimization, one sub-problem per datacenter j (eq. (20)):
//
//   min_{a_j >= 0, sum_i a_ij <= S_j}
//     phi_j beta_j sum_i a_ij + sum_i varphi_ij a_ij
//     + (rho/2)(alpha_j + beta_j sum_i a_ij - mu~_j - nu~_j)^2
//     + (rho/2) sum_i (a_ij - lambda~_ij)^2
//
// The coupling term sees a_j through t = sum_i a_ij only, so the minimizer is
//   a(t) = P_{sum <= S_j}(lambda~_j - varphi_j / rho
//                         - beta_j (phi_j / rho + alpha_j - mu~_j - nu~_j)
//                         - beta_j^2 t)
// (the scalar terms shift every entry) at the t with sum_i a_i(t) = t. The
// sum falls as t grows, so g(t) = t - sum_i a_i(t) has slope at least 1:
// one projection per probe of monotone_root_from on [0, S_j], starting at
// the previous iterate's t.

// Column inputs are non-owning views; see LambdaBlockInputs.
struct ABlockInputs {
  double alpha = 0.0;
  double beta = 0.0;
  double mu = 0.0;                     ///< mu~_j.
  double nu = 0.0;                     ///< nu~_j.
  double phi = 0.0;                    ///< phi_j^k.
  std::span<const double> varphi_col;  ///< varphi_1j..varphi_Mj (^k).
  std::span<const double> lambda_col;  ///< lambda~_1j..lambda~_Mj.
  double rho = 0.3;
  double capacity = 0.0;               ///< S_j, servers.
};

/// Writes the exact minimizer into `out` (sized M) and returns the number
/// of probes; see solve_lambda_block_into. The search starts at
/// t0 = sum(warm_start), the previous a_j's column sum.
int solve_a_block_into(const ABlockInputs& in,
                       std::span<const double> warm_start,
                       std::span<double> out, BlockWorkspace& ws,
                       const InnerSolverOptions& options = {});

// ---------------------------------------------------------------------------
// Step 1.5 — dual updates.

/// phi~_j = phi_j + rho * (alpha_j + beta_j sum_i a~_ij - mu~_j - nu~_j).
double update_phi(double phi, double rho, double alpha, double beta,
                  double a_col_sum, double mu, double nu);

/// varphi~_ij = varphi_ij + rho * (a~_ij - lambda~_ij).
double update_varphi(double varphi, double rho, double a, double lambda);

}  // namespace ufc::admm
