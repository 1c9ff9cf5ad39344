// Bracketed root of a monotone scalar function.
//
// Every block sub-problem of the ADM-G ends in one such root:
//  - the nu step (19) minimizes a scalar convex function, i.e. finds the
//    zero of its nondecreasing derivative, which jumps at the kinks of
//    piecewise emission costs (stepped carbon taxes);
//  - the lambda and a steps (17), (20) depend on their vector only through
//    one linear form, so each exact minimizer is a single simplex
//    projection taken at the root of a monotone scalar consistency
//    equation (admm/blocks.cpp).
//
// The finder is regula falsi with the Illinois modification (the value kept
// at a bracket end is halved when the same end survives two probes in a
// row), safeguarded so every probe lies strictly inside the bracket. It
// converges superlinearly on smooth functions, steps onto the root of a
// linear piece, and closes in on a jump like bisection. It takes the
// function as a template callable and allocates nothing.
#pragma once

#include <algorithm>
#include <cmath>

#include "util/contract.hpp"

namespace ufc {

/// monotone_root stops once the bracket is no wider than
/// kRootTolerance * (1 + |lo| + |hi|), or after kRootMaxProbes probes.
inline constexpr double kRootTolerance = 1e-15;
inline constexpr int kRootMaxProbes = 200;

/// Root of a nondecreasing `g` on [lo, hi]: lo if g(lo) >= 0, hi if
/// g(hi) <= 0, and otherwise a point of the final bracket around the sign
/// change. The returned point is always the last one `g` was evaluated at,
/// so a `g` that writes a by-product (a projection) leaves the by-product
/// of the returned root behind.
template <typename G>
double monotone_root(G&& g, double lo, double hi) {
  UFC_EXPECTS(lo <= hi);
  double g_lo = g(lo);
  if (g_lo >= 0.0) return lo;
  double g_hi = g(hi);
  if (g_hi <= 0.0) return hi;
  double x = hi;
  int last_moved = 0;  // +1: hi moved on the last probe, -1: lo did.
  for (int k = 0; k < kRootMaxProbes; ++k) {
    const double tolerance =
        kRootTolerance * (1.0 + std::abs(lo) + std::abs(hi));
    if (hi - lo <= tolerance) break;
    // Keeping a quarter tolerance off both ends means a secant step that
    // lands on the root is confirmed by one probe just across it.
    const double margin = 0.25 * tolerance;
    const double secant = lo + (hi - lo) * (g_lo / (g_lo - g_hi));
    x = std::clamp(secant, lo + margin, hi - margin);
    const double g_x = g(x);
    // ufc-lint: allow(float-equal) — an exact zero is the root itself.
    if (g_x == 0.0) return x;
    if (g_x > 0.0) {
      hi = x;
      g_hi = g_x;
      if (last_moved > 0) g_lo *= 0.5;
      last_moved = 1;
    } else {
      lo = x;
      g_lo = g_x;
      if (last_moved < 0) g_hi *= 0.5;
      last_moved = -1;
    }
  }
  return x;
}

}  // namespace ufc
