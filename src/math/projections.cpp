#include "math/projections.hpp"

#include <algorithm>
#include <cmath>

#include "util/contract.hpp"

namespace ufc {

Vec project_box(Vec v, double lo, double hi) {
  UFC_EXPECTS(lo <= hi);
  for (auto& x : v) x = std::clamp(x, lo, hi);
  return v;
}

Vec project_simplex(const Vec& v, double total) {
  UFC_EXPECTS(total >= 0.0);
  Vec out(v.size());
  std::vector<double> scratch;
  project_simplex_into(v.span(), total, out.span(), scratch);
  return out;
}

Vec project_capped_simplex(const Vec& v, double cap) {
  UFC_EXPECTS(cap >= 0.0);
  Vec out(v.size());
  std::vector<double> scratch;
  project_capped_simplex_into(v.span(), cap, out.span(), scratch);
  return out;
}

// Condat, "Fast projection onto the simplex and the l1 ball" (Math. Prog.
// 158, 2016), Algorithm 2. One filtering scan maintains a candidate support
// (`active`) and the running threshold rho = (sum(active) - total)/|active|;
// elements that invalidate the candidate demote the whole active set to a
// waiting list, revisited once at the end, followed by a pruning sweep that
// removes elements at or below the final threshold. Exact projection, O(n)
// expected; tau is accumulated incrementally, so it can differ from a
// sorted-prefix computation by a few ulps.
void project_simplex_into(std::span<const double> v, double total,
                          std::span<double> out,
                          std::vector<double>& scratch) {
  UFC_EXPECTS(total >= 0.0);
  UFC_EXPECTS(!v.empty());
  UFC_EXPECTS(out.size() == v.size());
  // ufc-lint: allow(float-equal) — exact-zero guard: the degenerate
  // zero-mass simplex has the all-zeros point as its only member.
  if (total == 0.0) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  const std::size_t n = v.size();
  if (scratch.size() < n) scratch.resize(n);
  // scratch holds both lists: the active candidate support grows upward from
  // index 0, the demoted waiting list grows downward from index n. The two
  // never collide: each input element lives in at most one of them.
  double* active = scratch.data();
  std::size_t active_count = 1;
  std::size_t waiting_top = n;
  active[0] = v[0];
  double rho = v[0] - total;
  for (std::size_t i = 1; i < n; ++i) {
    const double y = v[i];
    if (y <= rho) continue;
    rho += (y - rho) / static_cast<double>(active_count + 1);
    if (rho > y - total) {
      active[active_count++] = y;
    } else {
      // The grown threshold excludes the old candidates; park them for the
      // cleanup pass and restart the candidate set from this element. The
      // parked block may overlap the active list (waiting_top <
      // 2 active_count), so copy from the top down: each write lands above
      // the entry being read, on an entry already copied or a free slot.
      for (std::size_t k = active_count; k-- > 0;)
        scratch[--waiting_top] = active[k];
      active[0] = y;
      active_count = 1;
      rho = y - total;
    }
  }
  // Cleanup pass: demoted elements may still belong to the support. Reading
  // scratch[k] always happens before any write can reach index k (the active
  // list holds at most k elements when index k is processed).
  for (std::size_t k = waiting_top; k < n; ++k) {
    const double y = scratch[k];
    if (y > rho) {
      active[active_count++] = y;
      rho += (y - rho) / static_cast<double>(active_count);
    }
  }
  // Pruning sweeps: removing an element raises rho, which can disqualify
  // further elements; iterate until a sweep removes nothing.
  for (;;) {
    const std::size_t before = active_count;
    std::size_t kept = 0;
    for (std::size_t k = 0; k < before; ++k) {
      const double y = active[k];
      if (y > rho || active_count == 1) {
        // The single-survivor guard is unreachable in exact arithmetic
        // (rho = y - total < y when total > 0) but keeps the support
        // nonempty if total underflows against a huge entry.
        active[kept++] = y;
      } else {
        --active_count;
        rho += (rho - y) / static_cast<double>(active_count);
      }
    }
    if (kept == before) break;
  }
  UFC_ENSURES(active_count > 0);
  const double tau = rho;
  // tau depends only on scratch, so out may alias v.
  for (std::size_t i = 0; i < n; ++i) out[i] = std::max(v[i] - tau, 0.0);
}

void project_capped_simplex_into(std::span<const double> v, double cap,
                                 std::span<double> out,
                                 std::vector<double>& scratch) {
  UFC_EXPECTS(cap >= 0.0);
  UFC_EXPECTS(out.size() == v.size());
  double clipped_sum = 0.0;
  for (double x : v) clipped_sum += std::max(x, 0.0);
  if (clipped_sum <= cap) {
    for (std::size_t i = 0; i < v.size(); ++i) out[i] = std::max(v[i], 0.0);
    return;
  }
  // The cap binds (the sum constraint's multiplier is positive), so the
  // projection is the simplex projection at total = cap.
  project_simplex_into(v, cap, out, scratch);
}

Vec project_affine_sum(Vec v, double total) {
  UFC_EXPECTS(!v.empty());
  const double shift = (total - sum(v)) / static_cast<double>(v.size());
  for (auto& x : v) x += shift;
  return v;
}

Vec project_halfspace(Vec v, const Vec& a, double b) {
  UFC_EXPECTS(v.size() == a.size());
  const double aa = dot(a, a);
  UFC_EXPECTS(aa > 0.0);
  const double violation = dot(a, v) - b;
  if (violation <= 0.0) return v;
  axpy(-violation / aa, a, v);
  return v;
}

// ufc-lint: allow(expects-reach) — total clamp, defined for any vector.
Vec project_nonnegative(Vec v) {
  for (auto& x : v) x = std::max(x, 0.0);
  return v;
}

}  // namespace ufc
