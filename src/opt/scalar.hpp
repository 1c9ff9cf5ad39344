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
//
// Two forms share that loop:
//  - monotone_root(g, lo, hi) brackets the root with probes at both ends;
//  - monotone_root_from(g, x0, lo, hi) brackets it from a start point, for
//    a g of slope at least 1: the probes at x0 and at x0 - g(x0) enclose
//    the root. The lambda and a equations have that slope, so their blocks
//    start at the previous iterate's value and a search that starts near
//    the root ends after a few probes.
#pragma once

#include <algorithm>
#include <cmath>

#include "util/contract.hpp"

namespace ufc {

/// Both forms stop once the bracket is no wider than
/// kRootTolerance * (1 + |lo| + |hi|), or after kRootMaxProbes probes inside
/// it.
inline constexpr double kRootTolerance = 1e-15;
inline constexpr int kRootMaxProbes = 200;

namespace detail {

/// The Illinois loop of both forms, on a bracket with g(lo) < 0 < g(hi).
/// `x` is the last point probed before the call; it is returned if the
/// bracket is already closed, and otherwise the last probe of the loop is.
template <typename G>
double illinois_root(G& g, double lo, double g_lo, double hi, double g_hi,
                     double x) {
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

}  // namespace detail

/// Root of a nondecreasing `g` on [lo, hi]: lo if g(lo) >= 0, hi if
/// g(hi) <= 0, and otherwise a point of the final bracket around the sign
/// change. The returned point is always the last one `g` was evaluated at,
/// so a `g` that writes a by-product (a projection) leaves the by-product
/// of the returned root behind.
template <typename G>
double monotone_root(G&& g, double lo, double hi) {
  UFC_EXPECTS(lo <= hi);
  const double g_lo = g(lo);
  if (g_lo >= 0.0) return lo;
  const double g_hi = g(hi);
  if (g_hi <= 0.0) return hi;
  return detail::illinois_root(g, lo, g_lo, hi, g_hi, hi);
}

/// Root of a `g` on [lo, hi] whose slope is at least 1 (g(y) - g(x) >= y - x
/// for x < y), searched from `x0` (clamped into [lo, hi]). The first probe
/// is x0 and the second x1 = x0 - g(x0), clamped; the slope puts the root
/// between them, and the Illinois loop finishes inside. x0 is returned when
/// the clamped step does not move it (x0 is the end the root lies beyond,
/// or the step is below rounding), and x1 when g(x1) keeps the sign of
/// g(x0) (only rounding can do that, and then |x1 - root| <= |g(x1)|). Same
/// result contract as monotone_root, the last probe included; a start at
/// the root costs one probe and a linear g of slope 1 two.
template <typename G>
double monotone_root_from(G&& g, double x0, double lo, double hi) {
  UFC_EXPECTS(lo <= hi);
  x0 = std::clamp(x0, lo, hi);
  const double g0 = g(x0);
  // ufc-lint: allow(float-equal) — an exact zero is the root itself.
  if (g0 == 0.0) return x0;
  const double x1 = std::clamp(x0 - g0, lo, hi);
  if (x1 == x0) return x0;  // The step did not move the probe.
  const double g1 = g(x1);
  if (g0 > 0.0) {
    if (g1 >= 0.0) return x1;
    return detail::illinois_root(g, x1, g1, x0, g0, x1);
  }
  if (g1 <= 0.0) return x1;
  return detail::illinois_root(g, x0, g0, x1, g1, x1);
}

}  // namespace ufc
