#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "opt/scalar.hpp"
#include "util/contract.hpp"

namespace ufc {
namespace {

TEST(MonotoneRoot, LinearFunction) {
  // g(x) = 2x - 4 has root 2.
  const double root = monotone_root([](double x) { return 2.0 * x - 4.0; },
                                    0.0, 10.0);
  EXPECT_NEAR(root, 2.0, 1e-10);
}

TEST(MonotoneRoot, ClampsToLowerBound) {
  const double root =
      monotone_root([](double x) { return x + 1.0; }, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(root, 0.0);
}

TEST(MonotoneRoot, ClampsToUpperBound) {
  const double root =
      monotone_root([](double x) { return x - 100.0; }, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(root, 10.0);
}

TEST(MonotoneRoot, StepFunctionConvergesToJump) {
  // Subdifferential of |x - 3|-style kink: jumps from -1 to +1 at x = 3.
  auto g = [](double x) { return x < 3.0 ? -1.0 : 1.0; };
  const double root = monotone_root(g, 0.0, 10.0);
  EXPECT_NEAR(root, 3.0, 1e-9);
}

TEST(MonotoneRoot, InvertedBoundsThrow) {
  EXPECT_THROW(monotone_root([](double x) { return x; }, 1.0, 0.0),
               ContractViolation);
}

TEST(MinimizeConvexScalar, PiecewiseLinearKink) {
  // The nu block and the centralized dispatch minimize a convex scalar as
  // the root of its derivative. f(x) = max(2 - x, 2x - 4) is minimized at
  // the kink x = 2, where the derivative jumps unevenly from -1 to 2.
  auto derivative = [](double x) { return x < 2.0 ? -1.0 : 2.0; };
  const double x = monotone_root(derivative, 0.0, 10.0);
  EXPECT_NEAR(x, 2.0, 1e-9);
}

TEST(MonotoneRoot, ReturnsItsLastProbe) {
  // The block solvers rely on this: the by-product of the last probe is the
  // by-product of the returned root.
  double last = -1.0;
  auto g = [&](double x) {
    last = x;
    return std::exp(x) - 2.0;
  };
  const double root = monotone_root(g, 0.0, 3.0);
  EXPECT_EQ(root, last);
  EXPECT_NEAR(root, std::log(2.0), 1e-14);
  EXPECT_EQ(monotone_root(g, 1.0, 3.0), last);  // g(lo) >= 0
  EXPECT_EQ(monotone_root(g, -2.0, 0.5), last);  // g(hi) <= 0
}

TEST(MonotoneRoot, LinearPieceNeedsOneSecantStep) {
  // Both ends, the secant step onto the root, and one probe across it.
  int probes = 0;
  auto g = [&](double x) {
    ++probes;
    return 3.0 * x - 1.0;
  };
  const double root = monotone_root(g, 0.0, 10.0);
  EXPECT_NEAR(root, 1.0 / 3.0, 1e-14);
  EXPECT_LE(probes, 4);
}

// monotone_root_from: the start-point form for a g of slope at least 1.

TEST(MonotoneRootFrom, ReturnsItsLastProbe) {
  // g(x) = x + e^x - 3 has slope above 1; the root is near 0.79.
  double last = -1.0;
  auto g = [&](double x) {
    last = x;
    return x + std::exp(x) - 3.0;
  };
  for (const double start : {0.0, 0.5, 0.79, 1.5, 3.0}) {
    const double root = monotone_root_from(g, start, 0.0, 3.0);
    EXPECT_EQ(root, last) << start;
    EXPECT_NEAR(root + std::exp(root), 3.0, 1e-14) << start;
  }
  EXPECT_EQ(monotone_root_from(g, 2.0, 1.0, 3.0), last);  // g(lo) >= 0
  EXPECT_EQ(monotone_root_from(g, 0.2, -2.0, 0.5), last);  // g(hi) <= 0
}

TEST(MonotoneRootFrom, ClampsAStartOutsideTheBracket) {
  for (const double start : {50.0, -7.0}) {
    std::vector<double> probes;
    auto g = [&](double x) {
      probes.push_back(x);
      return x - 2.0;
    };
    EXPECT_NEAR(monotone_root_from(g, start, 0.0, 10.0), 2.0, 1e-14) << start;
    ASSERT_FALSE(probes.empty());
    EXPECT_EQ(probes.front(), std::clamp(start, 0.0, 10.0)) << start;
    for (const double x : probes) {
      EXPECT_GE(x, 0.0) << start;
      EXPECT_LE(x, 10.0) << start;
    }
  }
}

TEST(MonotoneRootFrom, StartAtTheRootCostsOneProbe) {
  int probes = 0;
  auto g = [&](double x) {
    ++probes;
    return 2.0 * x - 3.0;
  };
  EXPECT_EQ(monotone_root_from(g, 1.5, 0.0, 10.0), 1.5);
  EXPECT_EQ(probes, 1);
}

TEST(MonotoneRootFrom, SlopeOneLinearCostsTwoProbes) {
  // x0 - g(x0) lands on the root exactly (all values are dyadic).
  for (const double start : {3.0, -1.0}) {
    int probes = 0;
    auto g = [&](double x) {
      ++probes;
      return x - 0.25;
    };
    EXPECT_EQ(monotone_root_from(g, start, -2.0, 10.0), 0.25) << start;
    EXPECT_EQ(probes, 2) << start;
  }
}

TEST(MonotoneRootFrom, StepFunctionConvergesToJump) {
  // Slope 1 with a jump from -1 to +1 at x = 3: the root is the jump.
  auto g = [](double x) { return (x - 3.0) + (x < 3.0 ? -1.0 : 1.0); };
  for (const double start : {0.0, 2.9, 3.0, 3.5, 10.0})
    EXPECT_NEAR(monotone_root_from(g, start, 0.0, 10.0), 3.0, 1e-9) << start;
}

TEST(MonotoneRootFrom, InvertedBoundsThrow) {
  EXPECT_THROW(monotone_root_from([](double x) { return x; }, 0.5, 1.0, 0.0),
               ContractViolation);
}

}  // namespace
}  // namespace ufc
