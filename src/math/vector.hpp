// Small dense vector type used throughout the solvers.
//
// Deliberately minimal: owning, contiguous, bounds-checked in debug via
// contracts, with the handful of BLAS-1 style operations the ADMM blocks
// need. Not a general linear-algebra library.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace ufc {

class Vec {
 public:
  Vec() = default;
  explicit Vec(std::size_t n, double fill = 0.0) : data_(n, fill) {}
  Vec(std::initializer_list<double> init) : data_(init) {}
  explicit Vec(std::vector<double> data) : data_(std::move(data)) {}
  explicit Vec(std::span<const double> values)
      : data_(values.begin(), values.end()) {}

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator[](std::size_t i);
  double operator[](std::size_t i) const;

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

  std::span<const double> span() const { return data_; }
  std::span<double> span() { return data_; }
  const std::vector<double>& raw() const { return data_; }

  /// Element-wise in-place operations (sizes must match).
  Vec& operator+=(const Vec& other);
  Vec& operator-=(const Vec& other);
  Vec& operator*=(double scalar);

  void fill(double value);
  void resize(std::size_t n, double fill = 0.0) { data_.resize(n, fill); }
  /// Overwrites with `values` (resizing if needed; no allocation when the
  /// size already matches — the workspace-reuse hot path).
  void assign(std::span<const double> values) {
    data_.assign(values.begin(), values.end());
  }

 private:
  std::vector<double> data_;
};

Vec operator+(Vec lhs, const Vec& rhs);
Vec operator-(Vec lhs, const Vec& rhs);
Vec operator*(double scalar, Vec v);

double dot(const Vec& a, const Vec& b);
double norm2(const Vec& v);        ///< Euclidean norm.
double norm_inf(const Vec& v);     ///< Max absolute entry.
double sum(const Vec& v);

/// axpy: y += alpha * x.
void axpy(double alpha, const Vec& x, Vec& y);

/// Span axpy: y += alpha * x, for view-based hot paths (sizes must match).
void add_scaled_into(double alpha, std::span<const double> x,
                     std::span<double> y);

/// Maximum absolute difference between two equal-sized vectors.
double max_abs_diff(const Vec& a, const Vec& b);

/// True iff every entry is finite (no NaN, no infinity).
bool all_finite(std::span<const double> values);

}  // namespace ufc
