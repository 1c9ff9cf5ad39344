#include "model/utility.hpp"

#include <cmath>

#include "util/contract.hpp"

namespace ufc {

double QuadraticUtility::value(double latency_s) const {
  return -latency_s * latency_s;
}

double QuadraticUtility::derivative(double latency_s) const {
  return -2.0 * latency_s;
}

std::unique_ptr<UtilityFunction> QuadraticUtility::clone() const {
  return std::make_unique<QuadraticUtility>(*this);
}

double LinearUtility::value(double latency_s) const { return -latency_s; }

double LinearUtility::derivative(double /*latency_s*/) const { return -1.0; }

std::unique_ptr<UtilityFunction> LinearUtility::clone() const {
  return std::make_unique<LinearUtility>(*this);
}

ExponentialUtility::ExponentialUtility(double theta_s) : theta_(theta_s) {
  UFC_EXPECTS(theta_s > 0.0);
}

double ExponentialUtility::value(double latency_s) const {
  return -(std::exp(latency_s / theta_) - 1.0);
}

double ExponentialUtility::derivative(double latency_s) const {
  return -std::exp(latency_s / theta_) / theta_;
}

std::unique_ptr<UtilityFunction> ExponentialUtility::clone() const {
  return std::make_unique<ExponentialUtility>(*this);
}

}  // namespace ufc
