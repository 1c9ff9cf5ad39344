// Distributed 4-block ADM-G for UFC maximization (paper §III-C).
//
// Solves the ADMM form (13) of the UFC program with the prediction-
// correction scheme of He, Tao & Yuan (ADM-G): an alternating ADMM pass in
// the forward order lambda -> mu -> nu -> a -> duals, followed by a Gaussian
// back substitution correction in the backward order. Unlike plain
// multi-block ADMM, ADM-G provably converges without strong convexity —
// which matters here because real carbon-cost policies (flat taxes, linear
// cap-and-trade) are merely convex.
//
// The Grid and FuelCell baseline strategies of the paper are the same
// program with one block pinned (mu = 0, respectively nu = 0); the solver
// supports both via BlockPinning, specializing the back-substitution to the
// remaining blocks.
//
// AdmgSolver is the synchronous in-process driver and the engine's
// in-process BlockExecutor: it owns the iterate, runs the serial /
// thread-pool step (the front-end lambda pass, then the datacenter pass over
// engine.hpp's predict_datacenter / correct_datacenter) and hands itself to
// AdmgEngine, which owns the iteration skeleton. The options/trace/report
// vocabulary (AdmgOptions, AdmgTrace, SolveCore) lives in engine.hpp and is
// shared by every driver.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "admm/engine.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ufc::admm {

/// Report of a synchronous in-process solve; all fields live in the shared
/// SolveCore.
struct AdmgReport : SolveCore {};

class AdmgSolver : public BlockExecutor {
 public:
  /// Validates the problem and the options (step_rule); for PinNu that
  /// includes every datacenter's fuel-cell capacity covering its peak
  /// demand.
  AdmgSolver(const UfcProblem& problem, AdmgOptions options = {});

  /// Runs ADM-G from the paper's cold start (all variables zero) until the
  /// scaled primal residuals drop below tolerance or max_iterations.
  AdmgReport solve();

  /// Runs ADM-G from the *current* state (primal and dual) instead of the
  /// cold start: after `apply_update`, or after `restore()`. Adjacent hours
  /// have similar prices/arrivals, so the previous optimum and duals are an
  /// excellent initial point (see the warm-start benches).
  AdmgReport solve_warm();

  /// solve_warm under a per-call iteration budget (the receding-horizon
  /// tick: src/ctrl re-solves every tick with `max_iterations` capped at the
  /// tick deadline). Returns the best-so-far iterate with report.status
  /// telling Converged from BudgetExhausted; the solver keeps that iterate,
  /// so the next call resumes exactly where this one stopped. Without
  /// acceleration the budget seam never touches the iteration arithmetic:
  /// N budgeted calls of k iterations produce iterates bit-identical to one
  /// (N*k)-iteration solve_warm.
  AdmgReport solve_budgeted(int max_iterations);

  /// Back to the paper's cold start (all variables zero); the next
  /// solve_warm behaves like solve(). The receding-horizon cold baseline
  /// (bench_controller) re-solves every tick from here.
  void reset();

  /// Applies a sparse tick update (ProblemUpdate) to the live problem in
  /// place — the one way to change the problem under a warm iterate. The
  /// whole batch is validated before anything changes; untouched rows are
  /// not re-validated and nothing is copied wholesale. The workload
  /// normalization sigma is kept from construction, so iterates remain
  /// directly comparable. Every cache that described the pre-update
  /// problem — the convergence-certification gate, the maintained column
  /// sums, the residual scales — is invalidated, and an iterate left
  /// outside the new primal box (a fuel-cell cap shrinking below the warm
  /// mu_j) is routed through the clamp_iterate projection. An empty batch
  /// is a no-op.
  void apply_update(const ProblemUpdate& update);

  /// One prediction + correction step on the current state. Exposed so
  /// tests can compare the message-passing runtime iterate-by-iterate.
  void step() { step(0); }

  // ---- BlockExecutor ------------------------------------------------------
  /// The engine's step; `iteration` is ignored.
  void step(int iteration) override;
  void set_phase_profiling(bool enabled) override { profile_ = enabled; }
  const PhaseProfile* phase_profile() const override {
    return profile_ ? &profile_last_ : nullptr;
  }
  /// Residuals of the current iterate (normalized workload units / MW).
  double balance_residual() const override;
  double copy_residual() const override;
  /// Largest per-variable movement of the last step (the ADMM dual-residual
  /// proxy), in normalized units.
  double last_change() const override { return last_change_; }
  double balance_scale() const override { return scales_.balance; }
  double copy_scale() const override { return scales_.copy; }
  double objective() const override;
  /// True iff every entry of every block (primal and dual) is finite.
  bool iterate_finite() const override;
  double workload_scale() const override { return sigma_; }
  const UfcProblem& original_problem() const override { return original_; }
  Mat gather_lambda() const override { return lambda_; }
  Vec gather_mu() const override { return mu_; }
  std::size_t iterate_size() const override {
    return 3 * m_ * n_ + 3 * n_;
  }
  void copy_iterate(std::span<double> out) const override;
  void set_iterate(std::span<const double> values) override;
  void clamp_iterate(std::span<double> values) const override;

  // Read access to the current iterate (post-correction), in *normalized*
  // workload units (multiply routing variables by workload_scale() to get
  // servers). The distributed runtime exposes the same normalized iterate,
  // so the two are directly comparable.
  const Mat& lambda() const { return lambda_; }
  const Vec& mu() const { return mu_; }
  const Vec& nu() const { return nu_; }
  const Mat& a() const { return a_; }
  const Vec& phi() const { return phi_; }
  const Mat& varphi() const { return varphi_; }

  /// True when both scaled primal residuals and the scaled last change are
  /// below tolerance.
  bool is_converged() const;

  /// The normalized problem the solver operates on.
  const UfcProblem& problem() const { return problem_; }
  const AdmgOptions& options() const { return options_; }

  /// Serializes the complete iterate (primal, dual, last-change tracking)
  /// with the shared wire codec. A restored solver continues bit-identically
  /// to one that never paused.
  std::vector<std::byte> checkpoint() const;
  /// Restores a checkpoint() image. The solver must hold a problem with the
  /// same dimensions and workload normalization; anything else (including a
  /// truncated or mutated image) throws ufc::ContractViolation.
  void restore(std::span<const std::byte> bytes);

 protected:
  /// Enables the straggler model (PartialParticipationExecutor, async.hpp):
  /// each step, every front-end independently participates with
  /// probability `participation` (seeded Bernoulli, drawn serially in
  /// front-end order); a straggler's lambda prediction is the cached one
  /// from its last participating step. Requires participation in (0, 1); at
  /// exactly 1 the model is left disabled so the step consumes no
  /// randomness and stays bit-identical to the synchronous path.
  void enable_partial(double participation, std::uint64_t seed);
  /// Front-end updates skipped by the straggler model (0 unless enabled).
  std::uint64_t skipped_updates() const { return skipped_updates_; }

 private:
  /// Per-worker scratch: block-solver workspace and the a~ prediction
  /// buffer. One instance per pool thread, indexed by parallel_for_chunks'
  /// chunk index; a_new is sized in reset() and never reallocated inside
  /// step().
  struct WorkerScratch {
    BlockWorkspace blocks;
    Vec a_new;  ///< a~ prediction for one column (M).
  };

  /// Projects the warm iterate through clamp_iterate when apply_update left
  /// it outside the primal box (a shrunken fuel-cell cap). No-op — and no
  /// cache invalidation — while the iterate is already feasible.
  void repair_iterate_bounds();
  void run_full_datacenter_pass();

  UfcProblem original_;  ///< As given (for the final evaluation).
  UfcProblem problem_;   ///< Workload-normalized.
  AdmgOptions options_;
  StepRule rule_;
  double sigma_ = 1.0;
  std::size_t m_ = 0;  ///< Front-ends.
  std::size_t n_ = 0;  ///< Datacenters.

  Mat lambda_, a_, varphi_;
  Vec mu_, nu_, phi_;
  double last_change_ = 0.0;
  bool stepped_ = false;  ///< last_change_ is meaningful only after a step.
  ResidualScales scales_;

  // Straggler model (enable_partial).
  bool partial_ = false;
  double participation_ = 1.0;
  Rng rng_{1};
  std::vector<unsigned char> participate_;  ///< Per-front-end mask, this step.
  std::uint64_t skipped_updates_ = 0;

  // Step workspace (hoisted out of step(); see reset()).
  util::ThreadPool pool_;
  Mat lambda_tilde_;                   ///< Swapped with lambda_ each step.
  std::vector<WorkerScratch> scratch_; ///< One per pool thread.
  std::vector<double> chunk_change_;   ///< Per-chunk last-change maxima.

  // Transposed mirrors (N x M) for the fused datacenter pass: the pass works
  // on contiguous rows of these instead of striding the row-major primaries,
  // then transposes the corrected state back (cache-blocked both ways).
  Mat lambda_tilde_t_, a_t_, varphi_t_;
  /// Post-correction a column sums, maintained by the datacenter pass in
  /// increasing-i order (bitwise equal to Mat::col_sum) so balance_residual
  /// stops re-striding a_ every iteration.
  Vec a_col_sum_post_;
  bool post_sums_fresh_ = false;

  // Phase profiling (set_phase_profiling). The fused datacenter pass splits
  // its time per column into prediction vs correction; both passes count
  // their block solvers' probes. Each chunk accumulates into its own
  // profile (prediction/correction seconds and probe counts), summed in
  // chunk order afterwards — deterministic bookkeeping around unchanged
  // arithmetic.
  bool profile_ = false;
  PhaseProfile profile_last_;
  std::vector<PhaseProfile> chunk_profiles_;
};

/// Convenience wrapper: construct, solve, return the report.
AdmgReport solve_admg(const UfcProblem& problem, const AdmgOptions& options = {});

}  // namespace ufc::admm
