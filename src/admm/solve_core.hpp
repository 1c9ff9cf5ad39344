// The driver-independent solve result types.
//
// AdmgReport, AsyncReport and net::DistributedReport all embed SolveCore, so
// callers read solution, convergence and trace fields the same way regardless
// of driver. The structs live apart from engine.hpp so result consumers —
// most importantly the observability layer in src/obs, which is lint-banned
// from including solver-driver headers — can name them without pulling in the
// iteration engine.
#pragma once

#include <cstdint>
#include <vector>

#include "admm/watchdog.hpp"
#include "model/breakdown.hpp"
#include "model/problem.hpp"

namespace ufc::admm {

/// Why a solve returned. Budgeted (receding-horizon) drivers branch on this
/// instead of re-deriving it from `converged` + `watchdog_verdict`: a
/// BudgetExhausted report is a usable best-so-far iterate the caller is
/// expected to resume from next tick, a WatchdogTripped one is not.
enum class SolveStatus {
  Converged,        ///< Residual gate passed within the iteration budget.
  BudgetExhausted,  ///< Ran out of iterations; iterate is best-so-far.
  WatchdogTripped,  ///< Cut short by the solver-health watchdog.
};

constexpr const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::Converged: return "converged";
    case SolveStatus::BudgetExhausted: return "budget_exhausted";
    case SolveStatus::WatchdogTripped: return "watchdog_tripped";
  }
  return "unknown";
}

/// Per-iteration diagnostics.
struct AdmgTrace {
  std::vector<double> balance_residual;  ///< max_j |alpha+beta*sum a-mu-nu|, MW.
  std::vector<double> copy_residual;     ///< max_ij |a_ij - lambda_ij|, servers.
  std::vector<double> objective;         ///< UFC at (lambda^k, mu^k).
};

/// The shared core of every solve report. AdmgReport, AsyncReport and
/// net::DistributedReport all embed this, so callers read solution,
/// convergence and trace fields the same way regardless of driver.
struct SolveCore {
  UfcSolution solution;
  UfcBreakdown breakdown;       ///< Evaluated at the returned solution.
  int iterations = 0;
  bool converged = false;
  /// Why the solve returned (mirrors converged/watchdog_verdict; see
  /// SolveStatus). Defaults to BudgetExhausted so a zero-iteration report
  /// never reads as a certificate.
  SolveStatus status = SolveStatus::BudgetExhausted;
  double balance_residual = 0.0;  ///< Final scaled-residual inputs, raw units.
  double copy_residual = 0.0;
  /// Healthy unless the solve was cut short by the watchdog.
  WatchdogVerdict watchdog_verdict = WatchdogVerdict::Healthy;
  /// True when the returned solution came from the centralized fallback.
  bool fallback_centralized = false;
  /// Safeguard fallbacks of the Anderson mixer (0 without acceleration —
  /// nothing is proposed, so nothing falls back).
  std::uint64_t acceleration_fallbacks = 0;
  AdmgTrace trace;
};

}  // namespace ufc::admm
