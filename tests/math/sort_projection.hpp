// Sort-and-threshold simplex projections (Held, Wolfe & Crowder), kept in
// the tests as the oracle for src/math/projections.cpp and for every
// optimality check of a block solver. It shares no code with the library's
// Condat projection, so a solver and its oracle never agree by sharing a
// defect.
#pragma once

#include <algorithm>
#include <functional>
#include <vector>

#include "math/vector.hpp"

namespace ufc::testing {

/// Projects v onto {x >= 0, sum x = total}: sort descending and take
/// tau = (prefix_sum(k) - total) / k for the largest k with sorted[k-1] > tau.
inline Vec sort_project_simplex(const Vec& v, double total) {
  Vec out(v.size(), 0.0);
  if (total <= 0.0 || v.empty()) return out;
  std::vector<double> sorted(v.begin(), v.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  double prefix = 0.0;
  double tau = 0.0;
  for (std::size_t k = 0; k < sorted.size(); ++k) {
    prefix += sorted[k];
    const double candidate = (prefix - total) / static_cast<double>(k + 1);
    if (sorted[k] - candidate <= 0.0) break;
    tau = candidate;
  }
  for (std::size_t i = 0; i < v.size(); ++i)
    out[i] = std::max(v[i] - tau, 0.0);
  return out;
}

/// Projects v onto {x >= 0, sum x <= cap}: clip at zero if that fits under
/// the cap, else the simplex projection at total = cap.
inline Vec sort_project_capped_simplex(const Vec& v, double cap) {
  Vec clipped(v.size());
  double clipped_sum = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    clipped[i] = std::max(v[i], 0.0);
    clipped_sum += clipped[i];
  }
  if (clipped_sum <= cap) return clipped;
  return sort_project_simplex(v, cap);
}

}  // namespace ufc::testing
