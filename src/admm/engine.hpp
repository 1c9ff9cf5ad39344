// The single ADM-G iteration engine (paper §III-C).
//
// Every driver in this repo runs the same 4-block prediction-correction
// scheme of He, Tao & Yuan: an alternating ADMM pass in the forward order
// lambda -> mu -> nu -> a -> duals, followed by a Gaussian back substitution
// correction in the backward order. This header hosts that algorithm exactly
// once, split along its natural seam:
//
//   AdmgEngine        the iteration skeleton — convergence gate, watchdog,
//                     trace/telemetry, centralized fallback, solution
//                     packaging. Knows nothing about *where* blocks run.
//   BlockExecutor     how one iteration's blocks get computed. Three
//                     implementations:
//                       InProcessExecutor              serial / thread-pool
//                       PartialParticipationExecutor   straggler model
//                       net::BusExecutor               message passing
//   IterationObserver structured telemetry (telemetry.hpp).
//
// Correctness contract: for zero-fault, serial, participation=1 solves the
// engine produces iterates bit-identical to the pre-refactor drivers at every
// iteration — the refactor moves code, not arithmetic. tests/admm/
// test_engine.cpp pins this against hexfloat baselines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "admm/anderson.hpp"
#include "admm/blocks.hpp"
#include "admm/solve_core.hpp"
#include "admm/telemetry.hpp"
#include "admm/watchdog.hpp"
#include "model/breakdown.hpp"
#include "model/problem.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ufc::admm {

/// Which block, if any, is pinned to zero (paper §IV-B baselines).
enum class BlockPinning {
  None,   ///< Hybrid: full joint optimization.
  PinMu,  ///< Grid strategy: mu_j = 0 for all j.
  PinNu,  ///< FuelCell strategy: nu_j = 0 for all j (needs full fuel-cell capacity).
};

/// Iterate acceleration (docs/SOLVER_INGREDIENTS.md).
enum class Acceleration {
  None,      ///< Accept the plain step (default; the pinned baseline loop).
  Anderson,  ///< Safeguarded type-II Anderson mixing (admm/anderson.hpp).
};

constexpr const char* to_string(Acceleration acceleration) {
  switch (acceleration) {
    case Acceleration::None: return "none";
    case Acceleration::Anderson: return "anderson";
  }
  return "unknown";
}

struct AdmgOptions {
  /// Penalty parameter. The paper reports rho = 0.3 for its (unstated)
  /// variable scaling; with our mean-arrival workload normalization the
  /// well-conditioned value is ~10 (see the rho-sweep ablation bench, which
  /// also confirms every rho reaches the same objective).
  double rho = 10.0;
  double epsilon = 1.0;   ///< Back-substitution relaxation, in (0.5, 1].
  int max_iterations = 2000;
  /// Converged when both scaled primal residuals and the scaled
  /// successive-iterate change (the ADMM dual residual proxy) fall below
  /// this.
  double tolerance = 1e-4;
  /// Workload-unit normalization. ADMM's conditioning depends on the ratio
  /// between rho and the objective curvature; with lambda in raw "servers"
  /// (hundreds to thousands) the paper's rho = 0.3 dwarfs the utility
  /// curvature and the duals crawl. We therefore solve in normalized units
  /// lambda' = lambda / sigma with sigma = mean arrival (<= 0 picks that
  /// default), which leaves the objective value invariant and makes
  /// rho = 0.3 well-conditioned. Set to 1 to disable.
  double workload_scale = 0.0;
  /// false: plain (uncorrected) 4-block ADMM — the ablation the paper's
  /// choice of ADM-G guards against.
  bool gaussian_back_substitution = true;
  /// Empty; see InnerSolverOptions.
  InnerSolverOptions inner;
  BlockPinning pinning = BlockPinning::None;
  /// Record per-iteration residuals/objective (costs one evaluate() per
  /// iteration; cheap at paper scale).
  bool record_trace = true;
  /// Log a warning when the solve ends unconverged. Budgeted drivers
  /// (AdmgSolver::solve_budgeted, src/ctrl) turn this off: running out of a
  /// deliberate per-tick budget is an expected outcome reported through
  /// SolveStatus, not a solver-health event worth a log line per tick.
  bool warn_on_unconverged = true;
  /// Worker threads for the per-front-end and per-datacenter passes of each
  /// step (the count includes the calling thread). 1 = serial (default);
  /// 0 = std::thread::hardware_concurrency(). Iterates are bit-identical
  /// for every thread count: the passes split into deterministic contiguous
  /// chunks whose items write disjoint outputs.
  int threads = 1;
  /// Solver-health watchdog (shared with the distributed runtime; see
  /// docs/ROBUSTNESS.md). The default checks finiteness only; stall
  /// detection is opt-in via watchdog.stall_window. The watchdog never
  /// modifies iterates, so healthy runs are bit-identical with it on.
  WatchdogOptions watchdog;
  /// When the watchdog trips, re-solve with the centralized reference
  /// solver and return its plan instead of the untrusted iterate.
  bool fallback_to_centralized = false;
  /// Structured per-iteration telemetry hook (telemetry.hpp). Non-owning;
  /// must outlive the solve. Never influences the iterate.
  IterationObserver* observer = nullptr;
  /// Measure per-phase wall time (lambda pass, source prediction, GBS
  /// correction, convergence gate) each iteration and attach a PhaseProfile
  /// to every observer sample. Only meaningful with an observer attached.
  /// Profiling adds clock reads around existing code paths and never
  /// reorders or alters arithmetic, so profiled solves stay bit-identical.
  bool profile_phases = false;
  /// Iterate acceleration (docs/SOLVER_INGREDIENTS.md). None keeps the
  /// engine bit-identical to the pinned baselines on every executor.
  /// Anderson needs an executor with flat-iterate access (the in-process
  /// executors; the message-passing runtime rejects it up front) and relaxes
  /// bit-identity, not correctness: it passes the same residual gate and is
  /// cross-validated against the reference loop and the KKT checker.
  Acceleration acceleration = Acceleration::None;
};

// AdmgTrace and SolveCore — the result types every driver's report embeds —
// live in admm/solve_core.hpp so result consumers (notably src/obs) can
// include them without the engine.

/// The default workload normalization sigma: the mean arrival, floored at 1.
double natural_workload_scale(const UfcProblem& problem);

/// Returns an equivalent problem in normalized workload units
/// lambda' = lambda / sigma: arrivals and server counts divided by sigma,
/// per-server watts and the latency weight multiplied by sigma. The UFC
/// objective value of corresponding points is identical.
UfcProblem scale_workload_units(const UfcProblem& problem, double sigma);

/// A sparse batch of problem-data changes applied between warm-started
/// solves — the receding-horizon tick vocabulary (src/ctrl). Indices address
/// the construction-time dimensions; values are caller units (servers, $/MWh,
/// kg/MWh, MW). Every entry must be finite and non-negative, and the updated
/// problem must stay feasible (total arrivals within total capacity) —
/// apply_update contract-checks all of it before touching the live problem,
/// so a malformed tick never leaves the solver half-updated.
struct ProblemUpdate {
  std::vector<std::pair<std::size_t, double>> arrivals;        ///< i -> A_i.
  std::vector<std::pair<std::size_t, double>> grid_prices;     ///< j -> p_j.
  std::vector<std::pair<std::size_t, double>> carbon_rates;    ///< j -> C_j.
  std::vector<std::pair<std::size_t, double>> fuel_cell_caps;  ///< j -> mu_max_j.

  bool empty() const {
    return arrivals.empty() && grid_prices.empty() && carbon_rates.empty() &&
           fuel_cell_caps.empty();
  }
};

// ---------------------------------------------------------------------------
// Gaussian back substitution correction steps (paper step 2, backward order).
//
// These three helpers are the ONLY place the GBS correction arithmetic lives;
// the in-process executor and the net:: agents both call them, and the
// engine-single-loop lint rule keeps a fourth copy from ever reappearing.
// With gbs=false they apply the plain multi-block ADMM ablation (accept the
// prediction unchanged).

/// Result of correcting one a-block column.
struct ABlockCorrection {
  double delta_sum = 0.0;   ///< Sum of applied a-deltas (meaningful under gbs).
  double max_change = 0.0;  ///< max_i |a_new_i - a_old_i|.
};

/// Corrects one varphi column in place: varphi_i <- varphi_i +
/// eps * (varphi~_i - varphi_i) with varphi~ from update_varphi.
void correct_varphi_block(std::span<double> varphi,
                          std::span<const double> a_tilde,
                          std::span<const double> lambda_tilde, double rho,
                          double eps, bool gbs);

/// Corrects one a column in place toward its prediction a~.
ABlockCorrection correct_a_block(std::span<double> a,
                                 std::span<const double> a_tilde, double eps,
                                 bool gbs);

/// Corrects one datacenter's phi, nu and mu (backward order: dual first, then
/// the sources with the cross-block terms derived from (K_i^T K_i)^{-1}
/// K_i^T K_j — see DESIGN.md). `delta_sum` is ABlockCorrection::delta_sum of
/// the same column. Returns the largest nu/mu movement.
double correct_sources(double& phi, double& nu, double& mu, double phi_tilde,
                       double nu_tilde, double mu_tilde, double beta,
                       double delta_sum, double eps, bool gbs, bool pin_mu,
                       bool pin_nu);

// ---------------------------------------------------------------------------

/// Where one ADM-G iteration's blocks get computed. The engine drives this
/// interface and never touches block state directly; executors own the
/// iterate and report residuals/scales back in raw units.
class BlockExecutor {
 public:
  virtual ~BlockExecutor() = default;

  /// Runs one prediction + correction step. `iteration` is the engine's
  /// iteration counter (the round number for message-passing executors;
  /// in-process executors may ignore it).
  virtual void step(int iteration) = 0;

  /// True when the step changed the problem shape (e.g. degraded-mode
  /// datacenter removal). The engine then resets the watchdog and skips the
  /// convergence test for this iteration.
  virtual bool topology_changed() { return false; }

  /// False while some agent is still integrating inputs older than the
  /// staleness bound; convergence is not declared on stale inputs.
  virtual bool inputs_fresh(int iteration) const {
    (void)iteration;
    return true;
  }

  /// Enables per-phase wall timing for subsequent steps. Executors without
  /// phase timing ignore this (the engine still times the convergence gate).
  virtual void set_phase_profiling(bool enabled) { (void)enabled; }
  /// Phase timings of the last step; nullptr when unsupported or disabled.
  virtual const PhaseProfile* phase_profile() const { return nullptr; }

  virtual double balance_residual() const = 0;
  virtual double copy_residual() const = 0;
  /// Largest per-variable movement of the last step.
  virtual double last_change() const = 0;
  virtual double balance_scale() const = 0;
  virtual double copy_scale() const = 0;
  /// UFC objective at the current (normalized) iterate.
  virtual double objective() const = 0;
  /// True iff every entry of every block (primal and dual) is finite.
  virtual bool iterate_finite() const = 0;

  virtual double workload_scale() const = 0;
  /// The caller-unit problem the final solution is evaluated on.
  virtual const UfcProblem& original_problem() const = 0;
  /// Current iterate in normalized workload units, assembled.
  virtual Mat gather_lambda() const = 0;
  virtual Vec gather_mu() const = 0;

  // ---- Flat-iterate seam (docs/SOLVER_INGREDIENTS.md). -------------------
  // Default implementations decline support, so executors without it
  // (notably the message-passing runtime, whose agents were configured at
  // spawn) keep working with the plain scheme and the engine rejects
  // Acceleration::Anderson on them up front.

  /// The dimension of the stacked (lambda, a, varphi, mu, nu, phi) vector,
  /// or 0 when candidate replacement is unsupported.
  virtual std::size_t iterate_size() const { return 0; }
  virtual void copy_iterate(std::span<double> out) const { (void)out; }
  /// Replaces the current iterate with `values` (same stacking as
  /// copy_iterate) and invalidates the residual caches. last_change()
  /// keeps reporting the preceding plain step's movement — the dual-residual
  /// proxy of the map evaluation, which the convergence gate deliberately
  /// keeps (an accelerated iterate only certifies once the underlying step
  /// has stopped moving).
  virtual void set_iterate(std::span<const double> values) { (void)values; }
  /// Projects an extrapolated/mixed candidate back into the primal box
  /// (nonnegative routing and dispatch, fuel-cell capacity) before it is
  /// installed. Extrapolation can step outside the feasible set where the
  /// model layer's contracts (nonnegative workloads) do not hold; clamping
  /// is the standard projected-acceleration safeguard and is a no-op on
  /// feasible iterates. Duals are untouched.
  virtual void clamp_iterate(std::span<double> values) const { (void)values; }
};

/// The monolithic executor: the serial / thread-pool ADM-G pass that
/// AdmgSolver has always run, plus (optionally, via enable_partial) the
/// seeded straggler model of the asynchronous-participation extension.
class InProcessExecutor : public BlockExecutor {
 public:
  /// Validates the problem and options; for PinNu additionally requires
  /// every datacenter's fuel-cell capacity to cover its peak demand.
  InProcessExecutor(const UfcProblem& problem, AdmgOptions options);

  void step(int iteration) override;
  void set_phase_profiling(bool enabled) override { profile_ = enabled; }
  const PhaseProfile* phase_profile() const override {
    return profile_ ? &profile_last_ : nullptr;
  }
  double balance_residual() const override;
  double copy_residual() const override;
  double last_change() const override { return last_change_; }
  double balance_scale() const override { return balance_scale_; }
  double copy_scale() const override { return copy_scale_; }
  double objective() const override;
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

  /// Back to the paper's cold start (all variables zero).
  void reset();
  /// Applies a sparse tick update to the live problem in place (no
  /// full-problem copy, no re-validation of untouched rows; the workload
  /// normalization sigma is kept from construction, so iterates remain
  /// directly comparable). The warm iterate carries over; every
  /// cache that described the pre-update problem — the convergence-
  /// certification gate, the maintained column sums, residual scales — is
  /// invalidated, and an iterate left outside the new primal box (a
  /// fuel-cell cap shrinking below the warm mu_j) is routed through the
  /// clamp_iterate feasibility projection before the next step.
  void apply_update(const ProblemUpdate& update);

  // Read access to the current iterate (post-correction), in *normalized*
  // workload units.
  const Mat& lambda() const { return lambda_; }
  const Vec& mu() const { return mu_; }
  const Vec& nu() const { return nu_; }
  const Mat& a() const { return a_; }
  const Vec& phi() const { return phi_; }
  const Mat& varphi() const { return varphi_; }

  /// True when both scaled primal residuals and the scaled last change are
  /// below tolerance.
  bool is_converged() const;

  /// The normalized problem the executor operates on.
  const UfcProblem& problem() const { return problem_; }
  const AdmgOptions& options() const { return options_; }

  /// Front-end updates skipped by the straggler model (0 unless partial
  /// participation is enabled).
  std::uint64_t skipped_updates() const { return skipped_updates_; }

  /// Serializes the complete iterate (primal, dual, last-change tracking)
  /// with the shared wire codec. A restored executor continues
  /// bit-identically to one that never paused.
  std::vector<std::byte> checkpoint() const;
  /// Restores a checkpoint() image. The executor must hold a problem with
  /// the same dimensions and workload normalization; anything else
  /// (including a truncated or mutated image) throws ufc::ContractViolation.
  void restore(std::span<const std::byte> bytes);

 protected:
  /// Enables the straggler model: each step, every front-end independently
  /// participates with probability `participation` (seeded Bernoulli, drawn
  /// serially in front-end order); a straggler's lambda prediction is the
  /// cached one from its last participating step. Requires
  /// participation in (0, 1); at exactly 1 the model is left disabled so the
  /// step consumes no randomness and stays bit-identical to the synchronous
  /// path.
  void enable_partial(double participation, std::uint64_t seed);

 private:
  /// Per-worker scratch: block-solver workspace and the a~ prediction
  /// buffer. One instance per pool thread, indexed by parallel_for_chunks'
  /// chunk index; a_new is sized in reset() and never reallocated inside
  /// step().
  struct WorkerScratch {
    BlockWorkspace blocks;
    Vec a_new;  ///< a~ prediction for one column (M).
  };

  void update_residual_scales();
  /// Projects the warm iterate through clamp_iterate when apply_update left
  /// it outside the primal box (a shrunken fuel-cell cap). No-op — and no
  /// cache invalidation — while the iterate is already feasible.
  void repair_iterate_bounds();
  void run_full_datacenter_pass();

  UfcProblem original_;  ///< As given (for the final evaluation).
  UfcProblem problem_;   ///< Workload-normalized.
  AdmgOptions options_;
  double sigma_ = 1.0;
  std::size_t m_ = 0;  ///< Front-ends.
  std::size_t n_ = 0;  ///< Datacenters.

  Mat lambda_, a_, varphi_;
  Vec mu_, nu_, phi_;
  double last_change_ = 0.0;
  bool stepped_ = false;        ///< last_change_ is meaningful only after a step.
  double balance_scale_ = 1.0;  ///< Residual normalization, MW.
  double copy_scale_ = 1.0;     ///< Residual normalization, normalized units.

  // Straggler model (enable_partial).
  bool partial_ = false;
  double participation_ = 1.0;
  Rng rng_{1};
  std::vector<unsigned char> participate_;  ///< Per-front-end mask, this step.
  std::uint64_t skipped_updates_ = 0;

  // Step workspace (hoisted out of step(); see reset()).
  util::ThreadPool pool_;
  Mat lambda_tilde_;                   ///< Swapped with lambda_ each step.
  Vec a_col_sum_;                      ///< Per-step cache of a^k column sums.
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
  // its time per column into prediction vs correction, accumulated per chunk
  // and summed in chunk order afterwards — deterministic bookkeeping around
  // unchanged arithmetic.
  bool profile_ = false;
  PhaseProfile profile_last_;
  std::vector<double> chunk_predict_seconds_;
  std::vector<double> chunk_correct_seconds_;
};

/// The asynchronous-participation executor (extension bench §"async"): the
/// in-process pass with the straggler model enabled. Participation must lie
/// in (0, 1]; the pinned baselines require participation == 1 (their
/// convergence guarantees assume every agent moves every round).
class PartialParticipationExecutor : public InProcessExecutor {
 public:
  PartialParticipationExecutor(const UfcProblem& problem, AdmgOptions options,
                               double participation, std::uint64_t seed);
};

/// The driver-independent iteration skeleton: convergence gate, watchdog,
/// trace + observer telemetry, optional Anderson acceleration, centralized
/// fallback and solution packaging.
class AdmgEngine {
 public:
  explicit AdmgEngine(const AdmgOptions& options);

  /// Runs up to options.max_iterations steps of `executor` starting at
  /// iteration number `first_iteration` (non-zero when resuming a
  /// checkpointed distributed run) and packages the result. The executor
  /// keeps its final iterate, so callers can checkpoint or keep warm-
  /// starting from it. Acceleration::Anderson requires the executor's
  /// flat-iterate seam and is rejected up front on executors without it.
  SolveCore solve(BlockExecutor& executor, int first_iteration = 0);

 private:
  AdmgOptions options_;
  /// Present only under Acceleration::Anderson.
  std::optional<AndersonMixer> anderson_;
  // Acceleration workspace, sized once per solve (the engine loop itself
  // never allocates past the first iteration).
  std::vector<double> previous_, plain_, candidate_;
};

}  // namespace ufc::admm
