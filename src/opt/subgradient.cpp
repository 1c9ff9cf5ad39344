#include "opt/subgradient.hpp"

#include <cmath>

#include "util/contract.hpp"

namespace ufc {

SubgradientResult projected_subgradient(
    const Vec& x0, const std::function<Vec(const Vec&)>& subgradient,
    const std::function<double(const Vec&)>& value,
    const std::function<Vec(const Vec&)>& project,
    const SubgradientOptions& options) {
  UFC_EXPECTS(options.step0 > 0.0);
  UFC_EXPECTS(options.eval_stride > 0);

  Vec x = project(x0);
  SubgradientResult result;
  result.best_x = x;
  result.best_value = value(x);

  for (int k = 0; k < options.max_iterations; ++k) {
    Vec g = subgradient(x);
    const double gnorm = norm2(g);
    // ufc-lint: allow(float-equal) — exact-zero guard: a truly zero
    // subgradient is the only unconditionally safe early exit.
    if (gnorm == 0.0) {  // Stationary: x is optimal for convex objectives.
      result.best_x = x;
      result.best_value = value(x);
      result.iterations = k + 1;
      return result;
    }
    const double step =
        options.step0 / (std::sqrt(static_cast<double>(k) + 1.0) * gnorm);
    Vec candidate = x;
    axpy(-step, g, candidate);
    x = project(candidate);
    result.iterations = k + 1;

    if ((k + 1) % options.eval_stride == 0) {
      const double v = value(x);
      if (v < result.best_value) {
        result.best_value = v;
        result.best_x = x;
      }
    }
  }
  const double v = value(x);
  if (v < result.best_value) {
    result.best_value = v;
    result.best_x = x;
  }
  return result;
}

}  // namespace ufc
