// Projection correctness, including property-style checks of the two
// defining conditions: feasibility of the output and the variational
// inequality <v - P(v), x - P(v)> <= 0 for sampled feasible x.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "math/projections.hpp"
#include "math/sort_projection.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace ufc {
namespace {

using ::ufc::testing::sort_project_capped_simplex;
using ::ufc::testing::sort_project_simplex;

bool in_simplex(const Vec& x, double total, double tol = 1e-9) {
  double s = 0.0;
  for (double v : x) {
    if (v < -tol) return false;
    s += v;
  }
  return std::abs(s - total) <= tol * std::max(1.0, total);
}

Vec random_vec(Rng& rng, std::size_t n, double lo, double hi) {
  Vec v(n);
  for (auto& x : v) x = rng.uniform(lo, hi);
  return v;
}

Vec random_simplex_point(Rng& rng, std::size_t n, double total) {
  Vec v(n);
  double s = 0.0;
  for (auto& x : v) {
    x = rng.uniform(0.0, 1.0);
    s += x;
  }
  for (auto& x : v) x *= total / s;
  return v;
}

TEST(ProjectBox, ClampsEachEntry) {
  const Vec p = project_box(Vec{-2.0, 0.5, 7.0}, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(p[0], 0.0);
  EXPECT_DOUBLE_EQ(p[1], 0.5);
  EXPECT_DOUBLE_EQ(p[2], 1.0);
}

TEST(ProjectBox, InvalidBoundsThrow) {
  EXPECT_THROW(project_box(Vec{1.0}, 2.0, 1.0), ContractViolation);
}

TEST(ProjectSimplex, FeasiblePointIsFixed) {
  const Vec v{0.2, 0.3, 0.5};
  const Vec p = project_simplex(v, 1.0);
  EXPECT_LT(max_abs_diff(p, v), 1e-12);
}

TEST(ProjectSimplex, KnownSolution) {
  // Project (2, 0) onto sum = 1: (1.5, -0.5) -> clip -> (1, 0).
  const Vec p = project_simplex(Vec{2.0, 0.0}, 1.0);
  EXPECT_NEAR(p[0], 1.0, 1e-12);
  EXPECT_NEAR(p[1], 0.0, 1e-12);
}

TEST(ProjectSimplex, UniformPullForInteriorCase) {
  const Vec p = project_simplex(Vec{0.6, 0.6}, 1.0);
  EXPECT_NEAR(p[0], 0.5, 1e-12);
  EXPECT_NEAR(p[1], 0.5, 1e-12);
}

TEST(ProjectSimplex, ZeroTotalGivesZeroVector) {
  const Vec p = project_simplex(Vec{3.0, -1.0}, 0.0);
  EXPECT_DOUBLE_EQ(p[0], 0.0);
  EXPECT_DOUBLE_EQ(p[1], 0.0);
}

TEST(ProjectSimplex, NegativeTotalThrows) {
  EXPECT_THROW(project_simplex(Vec{1.0}, -1.0), ContractViolation);
}

class SimplexProjectionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplexProjectionProperty, OutputFeasibleAndVariationallyOptimal) {
  Rng rng(GetParam());
  const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 7));
  const double total = rng.uniform(0.1, 50.0);
  const Vec v = random_vec(rng, n, -20.0, 20.0);
  const Vec p = project_simplex(v, total);

  EXPECT_TRUE(in_simplex(p, total));

  // Variational inequality against sampled feasible points.
  const Vec residual = v - p;
  for (int k = 0; k < 20; ++k) {
    const Vec x = random_simplex_point(rng, n, total);
    EXPECT_LE(dot(residual, x - p), 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexProjectionProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(ProjectCappedSimplex, SlackCaseOnlyClipsNegatives) {
  const Vec p = project_capped_simplex(Vec{0.5, -0.2, 0.3}, 10.0);
  EXPECT_DOUBLE_EQ(p[0], 0.5);
  EXPECT_DOUBLE_EQ(p[1], 0.0);
  EXPECT_DOUBLE_EQ(p[2], 0.3);
}

TEST(ProjectCappedSimplex, TightCaseEqualsSimplexProjection) {
  const Vec v{3.0, 2.0, 1.0};
  const Vec p = project_capped_simplex(v, 2.0);
  const Vec q = project_simplex(v, 2.0);
  EXPECT_LT(max_abs_diff(p, q), 1e-12);
}

class CappedSimplexProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CappedSimplexProperty, OutputFeasibleAndVariationallyOptimal) {
  Rng rng(GetParam() + 1000);
  const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 7));
  const double cap = rng.uniform(0.1, 20.0);
  const Vec v = random_vec(rng, n, -10.0, 10.0);
  const Vec p = project_capped_simplex(v, cap);

  double s = 0.0;
  for (double x : p) {
    EXPECT_GE(x, 0.0);
    s += x;
  }
  EXPECT_LE(s, cap + 1e-9);

  const Vec residual = v - p;
  for (int k = 0; k < 20; ++k) {
    // Random feasible point: scale a simplex point by a random factor <= 1.
    Vec x = random_simplex_point(rng, n, cap * rng.uniform(0.0, 1.0));
    EXPECT_LE(dot(residual, x - p), 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CappedSimplexProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(ProjectAffineSum, ShiftsUniformly) {
  const Vec p = project_affine_sum(Vec{1.0, 2.0, 3.0}, 12.0);
  EXPECT_DOUBLE_EQ(p[0], 3.0);
  EXPECT_DOUBLE_EQ(p[1], 4.0);
  EXPECT_DOUBLE_EQ(p[2], 5.0);
}

TEST(ProjectHalfspace, InsidePointIsFixed) {
  const Vec v{1.0, 1.0};
  const Vec p = project_halfspace(v, Vec{1.0, 1.0}, 3.0);
  EXPECT_LT(max_abs_diff(p, v), 1e-12);
}

TEST(ProjectHalfspace, OutsidePointLandsOnBoundary) {
  const Vec p = project_halfspace(Vec{2.0, 2.0}, Vec{1.0, 1.0}, 2.0);
  EXPECT_NEAR(p[0] + p[1], 2.0, 1e-12);
  EXPECT_NEAR(p[0], 1.0, 1e-12);
}

TEST(ProjectHalfspace, ZeroNormalThrows) {
  EXPECT_THROW(project_halfspace(Vec{1.0}, Vec{0.0}, 1.0), ContractViolation);
}

TEST(ProjectNonnegative, ClipsNegatives) {
  const Vec p = project_nonnegative(Vec{-1.0, 2.0});
  EXPECT_DOUBLE_EQ(p[0], 0.0);
  EXPECT_DOUBLE_EQ(p[1], 2.0);
}

// ---------------------------------------------------------------------------
// Condat's O(n) projection (the library's) vs. the sort-and-threshold oracle
// (tests/math/sort_projection.hpp).
//
// Both compute the same threshold tau mathematically, but accumulate it in
// different orders, so the outputs may differ by a few ulps of tau. The
// tolerance below is 32 ulps of the problem magnitude. Support sets may
// legitimately differ only for entries within that band of tau, whose values
// are ~0 in both outputs, so value closeness is the meaningful contract.

double ulp_scale(const Vec& v, double total) {
  double scale = std::max(1.0, total);
  for (double x : v) scale = std::max(scale, std::abs(x));
  return 32.0 * std::numeric_limits<double>::epsilon() * scale;
}

Vec condat_simplex(const Vec& v, double total) {
  Vec out(v.size());
  std::vector<double> scratch;
  project_simplex_into(v.span(), total, out.span(), scratch);
  return out;
}

Vec condat_capped(const Vec& v, double cap) {
  Vec out(v.size());
  std::vector<double> scratch;
  project_capped_simplex_into(v.span(), cap, out.span(), scratch);
  return out;
}

class CondatVsSortProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CondatVsSortProperty, AgreesWithReferenceOnRandomInputs) {
  Rng rng(GetParam() + 2000);
  const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 200));
  const double total = rng.uniform(0.1, 50.0);
  const Vec v = random_vec(rng, n, -20.0, 20.0);
  const Vec reference = sort_project_simplex(v, total);
  const Vec fast = condat_simplex(v, total);
  EXPECT_TRUE(in_simplex(fast, total));
  EXPECT_LE(max_abs_diff(fast, reference), ulp_scale(v, total));
}

TEST_P(CondatVsSortProperty, CappedAgreesWithReferenceOnRandomInputs) {
  Rng rng(GetParam() + 3000);
  const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 200));
  const double cap = rng.uniform(0.1, 20.0);
  const Vec v = random_vec(rng, n, -10.0, 10.0);
  const Vec reference = sort_project_capped_simplex(v, cap);
  const Vec fast = condat_capped(v, cap);
  double s = 0.0;
  for (double x : fast) {
    EXPECT_GE(x, 0.0);
    s += x;
  }
  EXPECT_LE(s, cap + ulp_scale(v, cap));
  EXPECT_LE(max_abs_diff(fast, reference), ulp_scale(v, cap));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CondatVsSortProperty,
                         ::testing::Range<std::uint64_t>(1, 17));

TEST(CondatProjection, DemotionKeepsEveryCandidate) {
  // Each new element demotes the whole candidate list, and the parked block
  // overlaps the list it is copied from: copied in the wrong order it loses
  // the 2 and counts the 1 twice, returning (0, 0, 1, 2) with sum 3.
  const Vec v{0.0, 1.0, 2.0, 3.0};
  const Vec fast = condat_simplex(v, 2.0);
  EXPECT_DOUBLE_EQ(fast[0], 0.0);
  EXPECT_DOUBLE_EQ(fast[1], 0.0);
  EXPECT_DOUBLE_EQ(fast[2], 0.5);
  EXPECT_DOUBLE_EQ(fast[3], 1.5);
  const Vec capped = condat_capped(v, 2.0);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(capped[i], fast[i]);
}

TEST(CondatProjection, MatchesSortOracleOnEverySmallIntegerInput) {
  // Every v in {0..4}^4 with totals 1..3: ties, zeros and repeated
  // demotions in every order.
  int cases = 0;
  for (int code = 0; code < 625; ++code) {
    Vec v(4);
    for (int k = 0, rest = code; k < 4; ++k, rest /= 5)
      v[static_cast<std::size_t>(k)] = rest % 5;
    for (double total : {1.0, 2.0, 3.0}) {
      const double bound = ulp_scale(v, total);
      EXPECT_LE(max_abs_diff(condat_simplex(v, total),
                             sort_project_simplex(v, total)), bound)
          << "case " << code << " total " << total;
      EXPECT_LE(max_abs_diff(condat_capped(v, total),
                             sort_project_capped_simplex(v, total)), bound)
          << "case " << code << " cap " << total;
      ++cases;
    }
  }
  EXPECT_EQ(cases, 1875);
}

TEST(CondatProjection, MatchesSortOracleOnShortRandomInputs) {
  // Short vectors are where the parked block overlaps the candidate list.
  Rng rng(4242);
  for (std::size_t n = 2; n <= 8; ++n) {
    for (int trial = 0; trial < 2000; ++trial) {
      const Vec v = random_vec(rng, n, -5.0, 5.0);
      const double total = rng.uniform(0.1, 10.0);
      const double bound = ulp_scale(v, total);
      ASSERT_LE(max_abs_diff(condat_simplex(v, total),
                             sort_project_simplex(v, total)), bound)
          << "n " << n << " trial " << trial;
      ASSERT_LE(max_abs_diff(condat_capped(v, total),
                             sort_project_capped_simplex(v, total)), bound)
          << "n " << n << " trial " << trial;
    }
  }
}

TEST(CondatProjection, ThresholdMatchesProjection) {
  // project_simplex_into is simplex_threshold plus one write pass, bit for
  // bit, on the small-integer inputs and on random ones (the a block's
  // capped columns write (b - tau)+ from the threshold alone).
  const auto expect_same = [](const Vec& v, double total,
                              const std::string& label) {
    std::vector<double> scratch;
    const double tau = simplex_threshold(v.span(), total, scratch);
    const Vec projected = condat_simplex(v, total);
    for (std::size_t i = 0; i < v.size(); ++i)
      ASSERT_EQ(projected[i], std::max(v[i] - tau, 0.0)) << label << " " << i;
  };
  for (int code = 0; code < 625; ++code) {
    Vec v(4);
    for (int k = 0, rest = code; k < 4; ++k, rest /= 5)
      v[static_cast<std::size_t>(k)] = rest % 5;
    for (double total : {0.0, 1.0, 2.0, 3.0})
      expect_same(v, total, "case " + std::to_string(code));
  }
  Rng rng(4343);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 40));
    expect_same(random_vec(rng, n, -5.0, 5.0), rng.uniform(0.1, 10.0),
                "trial " + std::to_string(trial));
  }
}

TEST(CondatProjection, AllEntriesTied) {
  // Every entry equal: projection splits the total uniformly. Exercises the
  // pruning sweep with a fully tied active list.
  const std::size_t n = 9;
  const Vec v(n, 3.7);
  const Vec fast = condat_simplex(v, 1.0);
  const Vec reference = sort_project_simplex(v, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(fast[i], 1.0 / static_cast<double>(n), 1e-12);
  }
  EXPECT_LE(max_abs_diff(fast, reference), ulp_scale(v, 1.0));
}

TEST(CondatProjection, TiedBlocksStraddlingThreshold) {
  // Two tied blocks, one above and one below the threshold.
  const Vec v{5.0, 5.0, 5.0, 1.0, 1.0, 1.0};
  const Vec fast = condat_simplex(v, 2.0);
  const Vec reference = sort_project_simplex(v, 2.0);
  EXPECT_TRUE(in_simplex(fast, 2.0));
  EXPECT_LE(max_abs_diff(fast, reference), ulp_scale(v, 2.0));
  EXPECT_DOUBLE_EQ(fast[3], 0.0);  // below-threshold entries are hard zeros
}

TEST(CondatProjection, AllZeroInput) {
  const Vec v(5, 0.0);
  const Vec fast = condat_simplex(v, 2.0);
  const Vec reference = sort_project_simplex(v, 2.0);
  EXPECT_LE(max_abs_diff(fast, reference), ulp_scale(v, 2.0));
  for (double x : fast) EXPECT_NEAR(x, 0.4, 1e-15);
}

TEST(CondatProjection, SingleDominantEntry) {
  // One huge entry takes the whole budget; the rest are hard zeros.
  Vec v(6, -3.0);
  v[2] = 100.0;
  const Vec fast = condat_simplex(v, 1.5);
  EXPECT_DOUBLE_EQ(fast[2], 1.5);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 2) {
      EXPECT_DOUBLE_EQ(fast[i], 0.0);
    }
  }
}

TEST(CondatProjection, SingleElementVector) {
  const Vec fast = condat_simplex(Vec{(-4.0)}, 2.5);
  EXPECT_DOUBLE_EQ(fast[0], 2.5);
}

TEST(CondatProjection, ZeroTotalGivesZeroVector) {
  const Vec fast = condat_simplex(Vec{3.0, -1.0}, 0.0);
  EXPECT_DOUBLE_EQ(fast[0], 0.0);
  EXPECT_DOUBLE_EQ(fast[1], 0.0);
}

TEST(CondatProjection, InPlaceAliasingMatchesOutOfPlace) {
  // The contract allows out to alias v; verify bitwise agreement.
  const Vec v{2.0, -1.0, 0.5, 0.5};
  const Vec expected = condat_simplex(v, 1.0);
  Vec inplace = v;
  std::vector<double> scratch;
  project_simplex_into(inplace.span(), 1.0, inplace.span(), scratch);
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_EQ(inplace[i], expected[i]);
}

TEST(CondatProjection, ScratchGrowsButNeverShrinks) {
  std::vector<double> scratch;
  Vec out8(8);
  condat_simplex(Vec(3, 1.0), 1.0);  // warm-up irrelevant to scratch below
  project_simplex_into(Vec(8, 1.0).span(), 1.0, out8.span(), scratch);
  const std::size_t cap_after_8 = scratch.capacity();
  Vec out3(3);
  project_simplex_into(Vec(3, 1.0).span(), 1.0, out3.span(), scratch);
  EXPECT_EQ(scratch.capacity(), cap_after_8);
}

TEST(CondatCappedProjection, SlackCaseOnlyClipsNegatives) {
  const Vec fast = condat_capped(Vec{0.5, -0.2, 0.3}, 10.0);
  EXPECT_DOUBLE_EQ(fast[0], 0.5);
  EXPECT_DOUBLE_EQ(fast[1], 0.0);
  EXPECT_DOUBLE_EQ(fast[2], 0.3);
}

TEST(CondatCappedProjection, TightCaseMatchesSimplexCondat) {
  const Vec v{3.0, 2.0, 1.0};
  const Vec capped = condat_capped(v, 2.0);
  const Vec simplex = condat_simplex(v, 2.0);
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_EQ(capped[i], simplex[i]);
}

}  // namespace
}  // namespace ufc
