// Bracketed root of a monotone scalar function.
//
// Block sub-problems of the ADM-G end in such a root:
//  - the nu step (19) minimizes a scalar convex function, i.e. finds the
//    zero of its nondecreasing derivative, which jumps at the kinks of
//    piecewise emission costs (stepped carbon taxes);
//  - the lambda step (17) depends on its vector only through one linear
//    form, so its exact minimizer is a single simplex projection taken at
//    the root of a monotone scalar consistency equation (admm/blocks.cpp).
//    (The a step (20) has the same structure, but its equation is solved in
//    closed form on the support, with no search.)
//
// Two forms:
//  - monotone_root(g, lo, hi) brackets the root with probes at both ends
//    and closes in by regula falsi with the Illinois modification (the
//    value kept at a bracket end is halved when the same end survives two
//    probes in a row), safeguarded so every probe lies strictly inside the
//    bracket. It converges superlinearly on smooth functions, steps onto
//    the root of a linear piece, and closes in on a jump like bisection.
//  - monotone_root_from(g, model, x0, lo, hi) is for a g of slope at least
//    1, searched from a start point: each probe x bounds the root to within
//    |g(x)| of x, on the side the sign of g(x) names, and the caller's
//    model proposes the next probe (for the lambda block, the root of the
//    equation on the current probe's projection support). A start near the
//    root and a model exact on the root's piece end the search after two
//    probes.
// Both take the function as a template callable and allocate nothing.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/contract.hpp"

namespace ufc {

/// Both forms stop once the bracket is no wider than
/// kRootTolerance * (1 + |lo| + |hi|), or after kRootMaxProbes probes inside
/// it.
inline constexpr double kRootTolerance = 1e-15;
inline constexpr int kRootMaxProbes = 200;

/// Root of a nondecreasing `g` on [lo, hi]: lo if g(lo) >= 0, hi if
/// g(hi) <= 0, and otherwise a point of the final bracket around the sign
/// change. The returned point is always the last one `g` was evaluated at,
/// so a `g` that writes a by-product leaves the by-product of the returned
/// root behind.
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

/// Root of a `g` on [lo, hi] whose slope is at least 1 (g(y) - g(x) >= y - x
/// for x < y), searched from `x0` (clamped into [lo, hi]). A probe at x
/// narrows the bracket to [x - g(x), x] when g(x) > 0 and to [x, x - g(x)]
/// when g(x) < 0; the next probe is `model(x, g(x))`, called only while
/// the bracket is still open. The search bisects instead when the model's
/// point leaves the bracket or repeats x, or when the last probe did not
/// halve the bracket, so it closes in even on a model that is always wrong.
/// Returns the last probe, like monotone_root: a point of the final
/// bracket, which is the clamped start itself when the root lies beyond
/// it.
template <typename G, typename Model>
double monotone_root_from(G&& g, Model&& model, double x0, double lo,
                          double hi) {
  UFC_EXPECTS(lo <= hi);
  double x = std::clamp(x0, lo, hi);
  // The bracket's width before the probe; the first model step always runs.
  double width = std::numeric_limits<double>::infinity();
  for (int probes = 1;; ++probes) {
    const double g_x = g(x);
    // ufc-lint: allow(float-equal) — an exact zero is the root itself.
    if (g_x == 0.0) return x;
    if (g_x > 0.0) {
      hi = x;
      lo = std::max(lo, x - g_x);
    } else {
      lo = x;
      hi = std::min(hi, x - g_x);
    }
    const double tolerance =
        kRootTolerance * (1.0 + std::abs(lo) + std::abs(hi));
    if (hi - lo <= tolerance || probes == kRootMaxProbes) return x;
    const bool halved = hi - lo <= 0.5 * width;
    width = hi - lo;
    const double proposed = model(x, g_x);
    // Re-probing x exactly would learn nothing.
    const bool fresh = proposed >= lo && proposed <= hi && proposed != x;
    x = halved && fresh ? proposed : lo + 0.5 * (hi - lo);
  }
}

}  // namespace ufc
