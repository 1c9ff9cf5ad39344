#include <gtest/gtest.h>

#include <cmath>

#include "model/utility.hpp"
#include "util/contract.hpp"

namespace ufc {
namespace {

// Finite-difference check used for every utility shape.
void expect_derivative_consistent(const UtilityFunction& u, double l) {
  const double h = 1e-7;
  const double fd = (u.value(l + h) - u.value(l - h)) / (2.0 * h);
  EXPECT_NEAR(u.derivative(l), fd, 1e-4 * std::max(1.0, std::abs(fd)));
}

void expect_decreasing_and_concave(const UtilityFunction& u) {
  double prev_value = u.value(0.0);
  double prev_slope = u.derivative(0.0);
  for (double l = 0.005; l <= 0.1; l += 0.005) {
    const double v = u.value(l);
    const double s = u.derivative(l);
    EXPECT_LE(v, prev_value + 1e-12);  // non-increasing
    EXPECT_LE(s, prev_slope + 1e-12);  // concave: derivative non-increasing
    prev_value = v;
    prev_slope = s;
  }
}

TEST(QuadraticUtility, MatchesPaperEquation) {
  QuadraticUtility u;
  EXPECT_DOUBLE_EQ(u.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(u.value(0.02), -0.0004);
  EXPECT_DOUBLE_EQ(u.derivative(0.02), -0.04);
}

TEST(QuadraticUtility, ShapeProperties) {
  QuadraticUtility u;
  expect_decreasing_and_concave(u);
  for (double l : {0.0, 0.01, 0.05}) expect_derivative_consistent(u, l);
}

TEST(LinearUtility, Values) {
  LinearUtility u;
  EXPECT_DOUBLE_EQ(u.value(0.03), -0.03);
  EXPECT_DOUBLE_EQ(u.derivative(10.0), -1.0);
}

TEST(ExponentialUtility, Values) {
  ExponentialUtility u(0.02);
  EXPECT_DOUBLE_EQ(u.value(0.0), 0.0);
  EXPECT_NEAR(u.value(0.02), -(std::exp(1.0) - 1.0), 1e-12);
  expect_decreasing_and_concave(u);
  for (double l : {0.0, 0.01, 0.05}) expect_derivative_consistent(u, l);
}

TEST(ExponentialUtility, NonPositiveThetaThrows) {
  EXPECT_THROW(ExponentialUtility(0.0), ContractViolation);
  EXPECT_THROW(ExponentialUtility(-1.0), ContractViolation);
}

TEST(UtilityClone, PreservesBehaviour) {
  ExponentialUtility u(0.03);
  const auto clone = u.clone();
  EXPECT_EQ(clone->name(), "exponential");
  EXPECT_DOUBLE_EQ(clone->value(0.01), u.value(0.01));

  QuadraticUtility q;
  EXPECT_DOUBLE_EQ(q.clone()->derivative(0.5), q.derivative(0.5));
  LinearUtility l;
  EXPECT_DOUBLE_EQ(l.clone()->value(0.5), l.value(0.5));
}

}  // namespace
}  // namespace ufc
