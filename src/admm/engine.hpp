// The single ADM-G iteration engine (paper §III-C).
//
// Every driver in this repo runs the same 4-block prediction-correction
// scheme of He, Tao & Yuan: an alternating ADMM pass in the forward order
// lambda -> mu -> nu -> a -> duals, followed by a Gaussian back substitution
// correction in the backward order. This header hosts that algorithm exactly
// once, split along its natural seams:
//
//   step_rule, workload_scale_for, residual_scales
//                     the option checks, the workload normalization sigma
//                     and the convergence-gate scales every driver uses.
//   predict_datacenter / correct_datacenter
//                     one datacenter's procedures 2-5 and its correction
//                     (paper Fig. 2). AdmgSolver's datacenter pass and
//                     net::DatacenterAgent both call them.
//   AdmgEngine        the iteration skeleton — convergence gate, watchdog,
//                     trace/telemetry, centralized fallback, solution
//                     packaging. Knows nothing about *where* blocks run.
//   BlockExecutor     how one iteration's blocks get computed. Three
//                     implementations:
//                       AdmgSolver (admg.hpp)          serial / thread-pool
//                       PartialParticipationExecutor   straggler model
//                         (async.hpp)
//                       net::DistributedAdmgRuntime    message passing
//                         (net/runtime.hpp)
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

/// The sigma a solve uses: options.workload_scale when positive, else
/// natural_workload_scale(problem).
double workload_scale_for(const UfcProblem& problem,
                          const AdmgOptions& options);

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

/// The per-step constants of one ADM-G iteration, shared by every driver.
/// The defaults match AdmgOptions{}.
struct StepRule {
  double rho = 10.0;
  /// Back-substitution relaxation; 1 when gbs is off, where the plain ADMM
  /// ablation accepts the prediction unchanged.
  double epsilon = 1.0;
  bool gbs = true;      ///< Gaussian back substitution on.
  bool pin_mu = false;  ///< Grid strategy: mu_j = 0.
  bool pin_nu = false;  ///< FuelCell strategy: nu_j = 0.
};

/// The one validation of the options both drivers share, on the workload-
/// normalized problem: rho > 0, epsilon in (0.5, 1], max_iterations > 0,
/// tolerance > 0, threads >= 0 and, under PinNu, fuel cells that carry each
/// datacenter's peak demand. Throws ufc::ContractViolation otherwise.
StepRule step_rule(const UfcProblem& normalized_problem,
                   const AdmgOptions& options);

/// The convergence gate's residual normalizations.
struct ResidualScales {
  double balance = 1.0;  ///< MW: the largest peak demand, at least 1.
  double copy = 1.0;     ///< Normalized units: the largest arrival, at least 1.
};

ResidualScales residual_scales(const UfcProblem& normalized_problem);

// ---------------------------------------------------------------------------
// One datacenter's step (paper Fig. 2, procedures 2-5 and the correction).
//
// predict_datacenter and correct_datacenter are the ONLY copy of the
// datacenter arithmetic: AdmgSolver's datacenter pass runs them over its
// columns and net::DatacenterAgent runs them on its own state, so the two
// drivers produce bit-identical iterates by construction. The front-ends'
// dual varphi is corrected with correct_varphi_block — by AdmgSolver's
// column pass, and by each net::FrontEndAgent on its row. With gbs=false
// the corrections apply the plain multi-block ADMM ablation (accept the
// prediction unchanged).

/// Datacenter j's local data, in normalized workload units.
struct DatacenterData {
  double alpha_mw = 0.0;               ///< alpha_j, MW.
  double beta_mw = 0.0;                ///< beta_j, MW per workload unit.
  double capacity_servers = 0.0;       ///< S_j.
  double fuel_cell_capacity_mw = 0.0;  ///< mu_j^max.
  double fuel_cell_price = 0.0;        ///< p_0.
  double grid_price = 0.0;             ///< p_j.
  double carbon_tons_per_mwh = 0.0;    ///< kappa_j = C_j / 1000.
  /// Non-owning, non-null; the problem (or the agent) keeps it alive.
  const EmissionCostFunction* emission_cost = nullptr;
};

DatacenterData datacenter_data(const UfcProblem& normalized_problem,
                               std::size_t j);

/// The predicted sources and dual of one datacenter.
struct DatacenterPrediction {
  double mu = 0.0;   ///< mu~_j (0 under PinMu).
  double nu = 0.0;   ///< nu~_j (0 under PinNu).
  double phi = 0.0;  ///< phi~_j.
  int a_passes = 0;  ///< Passes of the a block solve (a work count).
};

/// Procedures 2-5: the mu, nu and a blocks from the iteration-k column `a`,
/// nu and phi (the mu block does not read mu^k) and this round's proposals
/// lambda~ and varphi, then the phi prediction. Writes a~ into `a_tilde`
/// (sized like `a`, not aliasing any input) and returns {mu~, nu~, phi~}.
DatacenterPrediction predict_datacenter(
    const DatacenterData& dc, const StepRule& rule, std::span<const double> a,
    double nu, double phi, std::span<const double> lambda_tilde,
    std::span<const double> varphi, std::span<double> a_tilde,
    BlockWorkspace& ws);

/// The correction, in the paper's backward order: a toward a~, then phi,
/// nu and mu with the cross-block terms derived from (K_i^T K_i)^{-1}
/// K_i^T K_j (see DESIGN.md). Returns the largest a/nu/mu movement.
double correct_datacenter(const DatacenterData& dc, const StepRule& rule,
                          const DatacenterPrediction& predicted,
                          std::span<const double> a_tilde,
                          std::span<double> a, double& mu, double& nu,
                          double& phi);

/// Result of correcting one a-block column or row.
struct ABlockCorrection {
  double delta_sum = 0.0;   ///< Sum of applied a-deltas (meaningful under gbs).
  double max_change = 0.0;  ///< max_i |a_new_i - a_old_i|.
};

/// Corrects varphi in place: varphi_i <- varphi_i + eps * (varphi~_i -
/// varphi_i) with varphi~ from update_varphi.
void correct_varphi_block(std::span<double> varphi,
                          std::span<const double> a_tilde,
                          std::span<const double> lambda_tilde,
                          const StepRule& rule);

/// Corrects a in place toward its prediction a~ (a front-end's mirror row
/// or a datacenter's column).
ABlockCorrection correct_a_block(std::span<double> a,
                                 std::span<const double> a_tilde,
                                 const StepRule& rule);

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
