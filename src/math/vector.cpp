#include "math/vector.hpp"

#include <algorithm>
#include <cmath>

#include "util/contract.hpp"

namespace ufc {

double& Vec::operator[](std::size_t i) {
  UFC_EXPECTS(i < data_.size());
  return data_[i];
}

double Vec::operator[](std::size_t i) const {
  UFC_EXPECTS(i < data_.size());
  return data_[i];
}

Vec& Vec::operator+=(const Vec& other) {
  UFC_EXPECTS(size() == other.size());
  for (std::size_t i = 0; i < size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Vec& Vec::operator-=(const Vec& other) {
  UFC_EXPECTS(size() == other.size());
  for (std::size_t i = 0; i < size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Vec& Vec::operator*=(double scalar) {
  for (auto& x : data_) x *= scalar;
  return *this;
}

// ufc-lint: allow(expects-reach) — total: any value fills any vector.
void Vec::fill(double value) { std::fill(data_.begin(), data_.end(), value); }

Vec operator+(Vec lhs, const Vec& rhs) {
  lhs += rhs;
  return lhs;
}

Vec operator-(Vec lhs, const Vec& rhs) {
  lhs -= rhs;
  return lhs;
}

Vec operator*(double scalar, Vec v) {
  v *= scalar;
  return v;
}

double dot(const Vec& a, const Vec& b) {
  UFC_EXPECTS(a.size() == b.size());
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) total += a[i] * b[i];
  return total;
}

// ufc-lint: allow(expects-reach) — total reduction via dot(), defined for
// any vector including the empty one.
double norm2(const Vec& v) { return std::sqrt(dot(v, v)); }

// ufc-lint: allow(expects-reach) — total reduction.
double norm_inf(const Vec& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

// ufc-lint: allow(expects-reach) — total reduction.
double sum(const Vec& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

void axpy(double alpha, const Vec& x, Vec& y) {
  UFC_EXPECTS(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void add_scaled_into(double alpha, std::span<const double> x,
                     std::span<double> y) {
  UFC_EXPECTS(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

double max_abs_diff(const Vec& a, const Vec& b) {
  UFC_EXPECTS(a.size() == b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

// ufc-lint: allow(expects-reach) — total predicate.
bool all_finite(std::span<const double> values) {
  for (double v : values)
    if (!std::isfinite(v)) return false;
  return true;
}

}  // namespace ufc
