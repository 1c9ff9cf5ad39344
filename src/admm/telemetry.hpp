// Structured solve telemetry for the ADM-G engine.
//
// Every driver (in-process, partial-participation, message-passing) runs the
// same AdmgEngine loop; an IterationObserver hooked into AdmgOptions sees the
// same per-iteration stream regardless of which executor produced it. That is
// the single instrumentation seam for admm, net, sim, bench and the CLI — no
// driver grows its own ad-hoc trace plumbing again.
#pragma once

#include <cstdint>

namespace ufc::admm {

struct SolveCore;  // solve_core.hpp

/// Wall time one engine iteration spent in each algorithm phase, seconds on
/// the monotonic clock, and the block solvers' work counts. Filled only
/// when AdmgOptions::profile_phases is set. The in-process executors time
/// every phase; the message-passing executor reports the work counts its
/// in-process agents return and leaves the step's phase times at 0, and the
/// engine times the gate for every executor. Profiling adds clock reads and
/// counters around existing code and never reorders or alters arithmetic,
/// so profiled solves stay bit-identical.
struct PhaseProfile {
  double lambda_pass_seconds = 0.0;  ///< Per-front-end lambda predictions.
  double prediction_seconds = 0.0;   ///< mu/nu/a solves + dual updates.
  double correction_seconds = 0.0;   ///< Gaussian back substitution.
  /// Residual passes of the convergence gate and Anderson's candidate
  /// test; the objective an observer samples is not part of it.
  double gate_seconds = 0.0;
  /// Work counts of the iteration's block solves, summed over front-ends
  /// and datacenters, not times: equal for every thread count. The lambda
  /// block's root-search probes (one projection each), the Condat
  /// projections among them (the other probes were projected on the
  /// previous iterate's support), and the a block's passes over its column
  /// (the scan, plus the kept entries' threshold and the write of a column
  /// whose cap binds).
  std::uint64_t lambda_probes = 0;
  std::uint64_t lambda_projections = 0;
  std::uint64_t a_passes = 0;

  double total_seconds() const {
    return lambda_pass_seconds + prediction_seconds + correction_seconds +
           gate_seconds;
  }
};

/// One engine iteration as the observer sees it. Residuals and change are in
/// raw (unscaled) units, matching AdmgTrace; `iteration` is the engine's
/// iteration number, which for resumed/distributed solves is the round index
/// rather than a zero-based counter.
struct IterationSample {
  int iteration = 0;
  double balance_residual = 0.0;  ///< max_j |alpha+beta*sum a-mu-nu|, MW.
  double copy_residual = 0.0;     ///< max_ij |a_ij - lambda_ij|, normalized units.
  double change = 0.0;            ///< Largest per-variable movement of the step.
  double objective = 0.0;         ///< UFC at the current (lambda, mu).
  double wall_seconds = 0.0;      ///< Wall time spent inside the step.
  bool has_phases = false;        ///< True when `phases` holds measurements.
  PhaseProfile phases;            ///< Valid only when has_phases.
};

/// Engine telemetry hook. Observers never see (and can never influence) the
/// iterate itself, so an attached observer keeps solves bit-identical.
class IterationObserver {
 public:
  virtual ~IterationObserver() = default;

  /// Called after every engine iteration (including the converging one).
  virtual void on_iteration(const IterationSample& sample) = 0;

  /// Called once per solve after the report core is finalized. Default: no-op.
  virtual void on_solve_end(const SolveCore& /*core*/) {}
};

}  // namespace ufc::admm
