#include <gtest/gtest.h>

#include <cmath>

#include "math/projections.hpp"
#include "opt/subgradient.hpp"
#include "util/contract.hpp"

namespace ufc {
namespace {

TEST(ProjectedSubgradient, SmoothQuadraticFindsMinimum) {
  auto subgrad = [](const Vec& x) { return Vec{2.0 * (x[0] - 3.0)}; };
  auto value = [](const Vec& x) { return (x[0] - 3.0) * (x[0] - 3.0); };
  auto identity = [](const Vec& x) { return x; };
  SubgradientOptions options;
  options.max_iterations = 5000;
  options.step0 = 1.0;
  const auto result =
      projected_subgradient(Vec{0.0}, subgrad, value, identity, options);
  EXPECT_NEAR(result.best_x[0], 3.0, 1e-2);
  EXPECT_LT(result.best_value, 1e-3);
}

TEST(ProjectedSubgradient, NonsmoothAbsoluteValue) {
  // f(x) = |x - 1| + 0.5 |x + 1|; minimized at x = 1 (slopes -0.5 then 1.5).
  auto subgrad = [](const Vec& x) {
    const double s1 = x[0] > 1.0 ? 1.0 : (x[0] < 1.0 ? -1.0 : 0.0);
    const double s2 = x[0] > -1.0 ? 0.5 : (x[0] < -1.0 ? -0.5 : 0.0);
    return Vec{s1 + s2};
  };
  auto value = [](const Vec& x) {
    return std::abs(x[0] - 1.0) + 0.5 * std::abs(x[0] + 1.0);
  };
  auto identity = [](const Vec& x) { return x; };
  SubgradientOptions options;
  options.max_iterations = 20000;
  options.step0 = 2.0;
  const auto result =
      projected_subgradient(Vec{-5.0}, subgrad, value, identity, options);
  EXPECT_NEAR(result.best_x[0], 1.0, 0.05);
}

TEST(ProjectedSubgradient, StopsAtStationaryPoint) {
  auto subgrad = [](const Vec&) { return Vec{0.0}; };
  auto value = [](const Vec&) { return 42.0; };
  auto identity = [](const Vec& x) { return x; };
  const auto result =
      projected_subgradient(Vec{1.0}, subgrad, value, identity);
  EXPECT_EQ(result.iterations, 1);
  EXPECT_DOUBLE_EQ(result.best_value, 42.0);
}

TEST(ProjectedSubgradient, ConstrainedTracksBestIterate) {
  // min -x over [0, 1]: optimum x = 1 on the boundary.
  auto subgrad = [](const Vec&) { return Vec{-1.0}; };
  auto value = [](const Vec& x) { return -x[0]; };
  auto box = [](const Vec& x) { return project_box(x, 0.0, 1.0); };
  const auto result = projected_subgradient(Vec{0.0}, subgrad, value, box);
  EXPECT_NEAR(result.best_x[0], 1.0, 1e-6);
}

TEST(ProjectedSubgradient, InvalidOptionsThrow) {
  auto f = [](const Vec& x) { return x; };
  auto v = [](const Vec&) { return 0.0; };
  SubgradientOptions bad;
  bad.step0 = 0.0;
  EXPECT_THROW(projected_subgradient(Vec{1.0}, f, v, f, bad),
               ContractViolation);
}

}  // namespace
}  // namespace ufc
