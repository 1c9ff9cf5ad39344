#include "admm/anderson.hpp"

#include <algorithm>
#include <cmath>

#include "util/contract.hpp"

namespace ufc::admm {

void AndersonMixer::begin(std::size_t size) {
  UFC_EXPECTS(size > 0);
  size_ = size;
  dg_.assign(kMemory * size, 0.0);
  df_.assign(kMemory * size, 0.0);
  f_.assign(size, 0.0);
  prev_g_.assign(size, 0.0);
  prev_f_.assign(size, 0.0);
  gram_.assign(kMemory * kMemory, 0.0);
  gamma_.assign(kMemory, 0.0);
  cols_ = 0;
  next_ = 0;
  have_previous_ = false;
  fallbacks_ = 0;
  best_ = std::numeric_limits<double>::infinity();
}

bool AndersonMixer::propose(std::span<const double> previous,
                            std::span<const double> stepped,
                            std::span<double> candidate) {
  UFC_EXPECTS(previous.size() == size_ && stepped.size() == size_ &&
              candidate.size() == size_);
  for (std::size_t i = 0; i < size_; ++i) f_[i] = stepped[i] - previous[i];
  if (have_previous_) {
    double* dg = dg_.data() + next_ * size_;
    double* df = df_.data() + next_ * size_;
    for (std::size_t i = 0; i < size_; ++i) {
      dg[i] = stepped[i] - prev_g_[i];
      df[i] = f_[i] - prev_f_[i];
    }
    next_ = (next_ + 1) % kMemory;
    cols_ = std::min(cols_ + 1, kMemory);
  }
  std::copy(stepped.begin(), stepped.end(), prev_g_.begin());
  std::copy(f_.begin(), f_.end(), prev_f_.begin());
  have_previous_ = true;
  if (cols_ == 0) return false;  // mixing needs at least one pair

  // Normal equations over the active columns (ring order is irrelevant to
  // the least-squares solution).
  for (std::size_t p = 0; p < cols_; ++p) {
    const double* dfp = df_.data() + p * size_;
    gamma_[p] = dot(dfp, f_.data());
    for (std::size_t q = p; q < cols_; ++q) {
      const double g = dot(dfp, df_.data() + q * size_);
      gram_[p * kMemory + q] = g;
      gram_[q * kMemory + p] = g;
    }
  }
  solve_in_place();

  // Degenerate-solve gate. Exactly singular Gram matrices give NaN weights;
  // NEAR-singular ones give finite but astronomical weights, and the mixed
  // candidate then teleports the multiplier blocks somewhere the residual
  // safeguard cannot see (accept() measures primal feasibility only — a
  // wild-dual candidate looks fine until the next plain step explodes).
  // Both shapes are the same event: the history no longer determines a
  // trustworthy mixture, so count the fallback and purge.
  double weight_mass = 0.0;
  for (std::size_t p = 0; p < cols_; ++p) weight_mass += std::abs(gamma_[p]);
  if (!(weight_mass <= kWeightCap)) {  // NaN fails the comparison too
    ++fallbacks_;
    reset();
    return false;
  }

  std::copy(stepped.begin(), stepped.end(), candidate.begin());
  for (std::size_t p = 0; p < cols_; ++p) {
    const double* dgp = dg_.data() + p * size_;
    const double w = gamma_[p];
    for (std::size_t i = 0; i < size_; ++i) candidate[i] -= w * dgp[i];
  }
  return true;
}

bool AndersonMixer::accept(double plain_residual, double candidate_residual) {
  best_ = std::min(best_, plain_residual);
  // NaN (non-finite candidate) fails the comparison, so it always falls
  // through to the rejection path. Gating against the best residual seen so
  // far (not just the plain step's) keeps a chain of "slightly worse"
  // accepts from compounding: against the plain residual alone the bound
  // ratchets upward with the diverging trajectory and finite overflow can
  // reach the block solves before any single accept looks bad.
  if (std::isfinite(candidate_residual) &&
      candidate_residual <= kSafeguard * plain_residual &&
      candidate_residual <= kSafeguard * best_) {
    best_ = std::min(best_, candidate_residual);
    return true;
  }
  ++fallbacks_;
  // The rejected mixture means the history no longer predicts the map;
  // purge it so the divergence cannot feed the next candidates.
  reset();
  return false;
}

void AndersonMixer::reset() {
  cols_ = 0;
  next_ = 0;
  have_previous_ = false;
}

double AndersonMixer::dot(const double* a, const double* b) const {
  double total = 0.0;
  for (std::size_t i = 0; i < size_; ++i) total += a[i] * b[i];
  return total;
}

void AndersonMixer::solve_in_place() {
  for (std::size_t k = 0; k < cols_; ++k) {
    const double pivot = gram_[k * kMemory + k];
    for (std::size_t r = k + 1; r < cols_; ++r) {
      const double factor = gram_[r * kMemory + k] / pivot;
      for (std::size_t c = k; c < cols_; ++c)
        gram_[r * kMemory + c] -= factor * gram_[k * kMemory + c];
      gamma_[r] -= factor * gamma_[k];
    }
  }
  for (std::size_t k = cols_; k-- > 0;) {
    double value = gamma_[k];
    for (std::size_t c = k + 1; c < cols_; ++c)
      value -= gram_[k * kMemory + c] * gamma_[c];
    gamma_[k] = value / gram_[k * kMemory + k];
  }
}

}  // namespace ufc::admm
