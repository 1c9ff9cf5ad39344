// Safeguarded type-II Anderson mixing: the engine's one optional iterate
// acceleration (AdmgOptions::acceleration = Acceleration::Anderson; see
// docs/SOLVER_INGREDIENTS.md).
//
// The mixer works on the executor's flat iterate (the stacked lambda, a,
// varphi, mu, nu, phi vector). The per-solve protocol: begin(size) resets the
// history; each iteration the engine calls propose(previous, stepped,
// candidate); if a candidate is proposed, the engine installs it, measures
// its scaled residual (NaN when the candidate is non-finite) and asks
// accept(plain, candidate) — a rejection counts a fallback, purges the
// poisoned history, and the engine restores the plain iterate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace ufc::admm {

/// Type-II Anderson mixing over the fixed-point residual f(x) = T(x) - x:
/// keep the last kMemory difference pairs (dG_p, dF_p), solve the least-
/// squares mixing weights from the normal equations (dF' dF) gamma = dF' f_k
/// and propose  candidate = T(x^k) - dG gamma.
///
/// The normal equations are solved by Gaussian elimination WITHOUT pivoting
/// or Tikhonov regularization — deliberately: a singular Gram matrix
/// divides by zero and a near-singular one blows the weights past
/// kWeightCap, and propose() then declines to offer a candidate, counts the
/// fallback and purges the degenerate history. That makes the safeguard
/// path an ordinary, testable event rather than a numerical accident.
class AndersonMixer {
 public:
  /// Difference pairs kept in the mixing history.
  static constexpr std::size_t kMemory = 5;
  /// A candidate whose scaled residual exceeds kSafeguard x the plain
  /// step's, or x the best residual of the solve, is rejected.
  static constexpr double kSafeguard = 2.0;
  /// l1 bound on the mixing weights: well-conditioned histories produce
  /// O(1) weights, so anything beyond this is a near-singular solve.
  static constexpr double kWeightCap = 1e4;

  /// Resets the history, the fallback count and the best-residual mark for
  /// a solve over a flat iterate of `size` entries.
  void begin(std::size_t size);
  /// Given the pre-step iterate and the plain stepped iterate T(previous),
  /// writes a mixed candidate and returns true; returning false keeps the
  /// plain iterate for this iteration (the pair is still recorded). All
  /// three spans have the begin() size.
  bool propose(std::span<const double> previous,
               std::span<const double> stepped, std::span<double> candidate);
  /// Safeguard: keep or reject the proposed candidate. `candidate_residual`
  /// is the executor's scaled residual at the candidate — NaN when the
  /// candidate is non-finite, which no comparison accepts.
  bool accept(double plain_residual, double candidate_residual);
  /// Purges the mixing history while keeping the fallback count and the
  /// best-residual mark.
  void reset();
  /// Safeguard fallbacks since begin().
  std::uint64_t fallbacks() const { return fallbacks_; }

 private:
  double dot(const double* a, const double* b) const;
  /// Gaussian elimination on (gram_, gamma_) without pivoting: singular
  /// systems produce non-finite gamma_ (see class comment).
  void solve_in_place();

  std::size_t size_ = 0;
  std::vector<double> dg_, df_, f_, prev_g_, prev_f_, gram_, gamma_;
  std::size_t cols_ = 0;
  std::size_t next_ = 0;
  bool have_previous_ = false;
  std::uint64_t fallbacks_ = 0;
  /// Smallest residual observed on the accepted trajectory; survives
  /// reset() because it describes the iterate, not the mixing history.
  double best_ = std::numeric_limits<double>::infinity();
};

}  // namespace ufc::admm
