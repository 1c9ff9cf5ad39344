// Euclidean projections onto the feasible sets of the UFC program.
//
//  - box            [lo, hi]^n                       (mu blocks)
//  - simplex        {x >= 0, sum x  = total}         (lambda rows, eq. (4))
//  - capped simplex {x >= 0, sum x <= cap}           (a columns, eq. (14))
//  - affine sum     {x : sum x = total}              (Dykstra component)
//  - halfspace      {x : <a, x> <= b}                (Dykstra component)
//
// Both simplex projections use Condat's O(n) method (L. Condat, "Fast
// projection onto the simplex and the l1 ball", Math. Prog. 158, 2016,
// Alg. 2): one filtering scan finds the threshold tau with
// sum max(v_i - tau, 0) = total, without sorting.
#pragma once

#include <span>
#include <vector>

#include "math/vector.hpp"

namespace ufc {

/// Clamps each entry of v into [lo, hi]. Requires lo <= hi.
Vec project_box(Vec v, double lo, double hi);

/// Projects v onto {x >= 0, sum x = total}. Requires total >= 0.
Vec project_simplex(const Vec& v, double total);

/// Projects v onto {x >= 0, sum x <= cap}. Requires cap >= 0.
Vec project_capped_simplex(const Vec& v, double cap);

/// Allocation-free simplex projection writing into `out` (out may alias v).
/// `scratch` is reused across calls and grows to v.size() once; the
/// allocating project_simplex gives the same bits.
void project_simplex_into(std::span<const double> v, double total,
                          std::span<double> out, std::vector<double>& scratch);

/// Allocation-free capped-simplex projection (out may alias v). When the cap
/// binds it is project_simplex_into at total = cap.
void project_capped_simplex_into(std::span<const double> v, double cap,
                                 std::span<double> out,
                                 std::vector<double>& scratch);

/// Projects v onto the affine set {x : sum x = total}.
Vec project_affine_sum(Vec v, double total);

/// Projects v onto the halfspace {x : dot(a, x) <= b}. Requires a != 0.
Vec project_halfspace(Vec v, const Vec& a, double b);

/// Returns max(0, x) element-wise (projection onto the nonnegative orthant).
Vec project_nonnegative(Vec v);

}  // namespace ufc
