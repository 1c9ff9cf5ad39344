// Workload-performance utility functions (paper §II-B3).
//
// The utility of the user group at front-end i is
//
//     U(lambda_i) = A_i * u( l_i ),    l_i = sum_j lambda_ij L_ij / A_i ,
//
// where l_i is the request-weighted average propagation latency (seconds)
// and u is a decreasing concave shape function. The paper's default is the
// quadratic u(l) = -l^2 (its eq. (2)); we also provide linear and
// exponential shapes for sensitivity studies.
//
// Gradient identity used by the solvers:  dU/dlambda_ij = u'(l_i) * L_ij.
#pragma once

#include <memory>
#include <string>

namespace ufc {

/// Decreasing concave latency-utility shape u(l) with l in seconds.
class UtilityFunction {
 public:
  virtual ~UtilityFunction() = default;

  /// u(l). Must be non-increasing and concave in l >= 0.
  virtual double value(double latency_s) const = 0;

  /// u'(l) (any supergradient selection for non-smooth shapes).
  virtual double derivative(double latency_s) const = 0;

  virtual std::string name() const = 0;
  virtual std::unique_ptr<UtilityFunction> clone() const = 0;
};

/// u(l) = -l^2 — the paper's eq. (2): users increasingly abandon the
/// service as latency grows.
class QuadraticUtility final : public UtilityFunction {
 public:
  double value(double latency_s) const override;
  double derivative(double latency_s) const override;
  std::string name() const override { return "quadratic"; }
  std::unique_ptr<UtilityFunction> clone() const override;
};

/// u(l) = -l — linear displeasure in latency (risk-neutral users).
class LinearUtility final : public UtilityFunction {
 public:
  double value(double latency_s) const override;
  double derivative(double latency_s) const override;
  std::string name() const override { return "linear"; }
  std::unique_ptr<UtilityFunction> clone() const override;
};

/// u(l) = -(exp(l / theta) - 1) — sharply increasing displeasure beyond the
/// latency scale theta (seconds). Concave decreasing for theta > 0.
class ExponentialUtility final : public UtilityFunction {
 public:
  explicit ExponentialUtility(double theta_s);
  double value(double latency_s) const override;
  double derivative(double latency_s) const override;
  std::string name() const override { return "exponential"; }
  std::unique_ptr<UtilityFunction> clone() const override;

  double theta() const { return theta_; }

 private:
  double theta_;
};

}  // namespace ufc
