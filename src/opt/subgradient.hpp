// Diminishing-step projected subgradient method for convex nonsmooth
// objectives. The centralized reference solver uses it: its reduced
// objective is piecewise smooth because the inner fuel-cell dispatch is a
// pointwise minimum. Tracks the best iterate seen, since subgradient steps
// need not descend.
#pragma once

#include <functional>

#include "math/vector.hpp"

namespace ufc {

struct SubgradientOptions {
  int max_iterations = 20000;
  /// Step at iteration k is step0 / sqrt(k + 1).
  double step0 = 1.0;
  /// Evaluate the objective every `eval_stride` iterations to track the best
  /// iterate (subgradient methods are not descent methods).
  int eval_stride = 10;
};

struct SubgradientResult {
  Vec best_x;
  double best_value = 0.0;
  int iterations = 0;
};

/// Diminishing-step projected subgradient; returns the best iterate found.
/// `value` must evaluate the objective (used only for best-tracking).
SubgradientResult projected_subgradient(
    const Vec& x0, const std::function<Vec(const Vec&)>& subgradient,
    const std::function<double(const Vec&)>& value,
    const std::function<Vec(const Vec&)>& project,
    const SubgradientOptions& options = {});

}  // namespace ufc
