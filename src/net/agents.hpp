// The two node types of the distributed ADM-G protocol (paper Fig. 2).
//
// Each agent owns exactly the paper's per-node state and parameters — a
// front-end i never sees prices, capacities or other front-ends' duals; a
// datacenter j never sees the utility function or arrivals — and all
// coupling flows through RoutingProposal / RoutingAssignment messages on the
// bus. The arithmetic is the in-process solver's: a datacenter runs
// admm::predict_datacenter / correct_datacenter, a front-end the shared
// lambda block and GBS helpers, all under the admm::StepRule AdmgSolver
// uses (admm/engine.hpp). Both drivers therefore produce bit-identical
// iterates; tests assert this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "admm/engine.hpp"
#include "net/transport.hpp"

namespace ufc::net {

/// Step rule and staleness mode shared by both agent kinds.
struct ProtocolConfig {
  /// rho, epsilon, GBS and pinning; the runtime takes it from
  /// admm::step_rule, as AdmgSolver does.
  admm::StepRule rule;
  /// Degraded mode: a round may proceed on the last value received from a
  /// peer instead of requiring a fresh message every iteration (tolerating
  /// message loss, delay and crashes). false = strict lockstep: every
  /// expected message must arrive with the current iteration number,
  /// anything else is a contract violation.
  bool allow_stale = false;
};

/// Everything front-end i knows locally.
struct FrontEndLocalConfig {
  std::size_t index = 0;
  double arrival = 0.0;                     ///< A_i.
  Vec latency_row_s;                        ///< L_i1..L_iN.
  double latency_weight = 0.0;              ///< w.
  std::shared_ptr<const UtilityFunction> utility;
  /// Bus ids of the datacenters this front-end talks to, positional with
  /// latency_row_s. Empty = the identity layout datacenter_id(0..N-1);
  /// graceful degradation passes the surviving original ids instead so
  /// scripted faults keep addressing the same physical nodes.
  std::vector<NodeId> datacenter_ids;
  ProtocolConfig protocol;
};

class FrontEndAgent {
 public:
  explicit FrontEndAgent(FrontEndLocalConfig config);

  /// Procedure 1: solve the lambda block from local state and send
  /// (lambda~_ij, varphi_ij^k) to every datacenter. Runs on any Transport —
  /// in-process bus or socket-backed — unchanged. Returns the lambda
  /// block's work (admm::PhaseProfile::lambda_probes and
  /// lambda_projections).
  admm::LambdaBlockWork send_proposals(Transport& bus, int iteration);

  /// Procedures 4-5 + correction: consume the datacenters' a~_ij replies,
  /// update the local dual, apply the back-substitution corrections, and
  /// report the local copy residual max_j |a_ij - lambda_ij| to the
  /// coordinator.
  void process_assignments(Transport& bus, int iteration);

  NodeId id() const { return front_end_id(config_.index); }
  const Vec& lambda() const { return lambda_; }
  const Vec& a_mirror() const { return a_; }
  const Vec& varphi() const { return varphi_; }
  double last_copy_residual() const { return last_copy_residual_; }
  /// Datacenter slots filled from a previous iteration's value instead of a
  /// fresh message, summed over all rounds (always 0 in strict mode).
  std::uint64_t stale_assignments() const { return stale_assignments_; }
  /// Iteration of the oldest input this agent is currently operating on
  /// (-1 = some peer has never been heard from). The runtime bounds
  /// current_round - oldest to declare convergence under staleness.
  std::int32_t oldest_input_round() const;

  /// Serializes the complete per-node state (iterate + staleness caches)
  /// with the shared wire codec.
  void append_state(std::vector<std::byte>& out) const;
  /// Restores append_state() bytes, advancing `offset`; the dimension must
  /// match or this throws ufc::ContractViolation.
  void restore_state(std::span<const std::byte> bytes, std::size_t& offset);
  /// Seeds the iterate directly (graceful degradation rebuilds agents on
  /// the reduced problem from compacted state). Staleness caches restart
  /// from the given values.
  void load_iterate(std::span<const double> lambda, std::span<const double> a,
                    std::span<const double> varphi);

 private:
  /// Positional slot of the datacenter with bus id `source`.
  std::size_t position_of(NodeId source) const;

  FrontEndLocalConfig config_;
  std::size_t n_ = 0;   ///< Number of datacenters (from the latency row).
  Vec lambda_;          ///< lambda_i^k (post-correction).
  Vec lambda_tilde_;    ///< This iteration's prediction.
  Vec a_;               ///< Local mirror of a_i^k.
  Vec varphi_;          ///< varphi_i^k (owned here).
  /// Latest a~_ij received per datacenter and the iteration it came from
  /// (-1 = never). In strict mode every round overwrites every slot; in
  /// degraded mode missing/late messages leave the previous value standing.
  Vec a_tilde_cache_;
  std::vector<std::int32_t> last_assignment_round_;
  double last_copy_residual_ = 0.0;
  std::uint64_t stale_assignments_ = 0;
  /// Scratch of the lambda block solve.
  admm::BlockWorkspace blocks_;
};

/// Everything datacenter j knows locally.
struct DatacenterLocalConfig {
  std::size_t index = 0;
  std::size_t num_front_ends = 0;  ///< M (to size local vectors).
  /// alpha_j, beta_j, S_j, mu_j^max, p_0, p_j and kappa_j. The agent points
  /// data.emission_cost at the cost function below, which it keeps alive.
  admm::DatacenterData data;
  std::shared_ptr<const EmissionCostFunction> emission_cost;
  ProtocolConfig protocol;
};

/// What one datacenter's round reports to the runtime that stepped it.
struct DatacenterRound {
  /// Largest move of the datacenter's a, mu and nu (correct_datacenter's
  /// result), which the coordinator folds into the round's change.
  double change = 0.0;
  /// Passes of the a block solve (admm::PhaseProfile::a_passes).
  int a_passes = 0;
};

class DatacenterAgent {
 public:
  explicit DatacenterAgent(DatacenterLocalConfig config);

  /// Procedures 2-5 + correction: consume this iteration's proposals, run
  /// admm::predict_datacenter (the mu, nu and a blocks and the phi_j
  /// prediction), reply a~_ij to every front-end, run
  /// admm::correct_datacenter, and report the local balance residual to the
  /// coordinator. Returns the round's move and a-block work count. Runs on
  /// any Transport — in-process bus or socket-backed — unchanged.
  DatacenterRound process_proposals(Transport& bus, int iteration);

  NodeId id() const { return datacenter_id(config_.index); }
  double mu() const { return mu_; }
  double nu() const { return nu_; }
  double phi() const { return phi_; }
  const Vec& a_col() const { return a_; }
  double last_balance_residual() const { return last_balance_residual_; }
  /// Front-end slots filled from a previous iteration's proposal instead of
  /// a fresh message, summed over all rounds (always 0 in strict mode).
  std::uint64_t stale_proposals() const { return stale_proposals_; }
  /// Iteration of the oldest input this agent is currently operating on
  /// (-1 = some peer has never been heard from); see FrontEndAgent.
  std::int32_t oldest_input_round() const;

  /// Serializes the complete per-node state (iterate + staleness caches).
  void append_state(std::vector<std::byte>& out) const;
  /// Restores append_state() bytes, advancing `offset`.
  void restore_state(std::span<const std::byte> bytes, std::size_t& offset);
  /// Seeds the iterate directly (graceful degradation / warm rebuild). The
  /// proposal caches restart from (a_col, varphi_col) — the near-converged
  /// approximation lambda ~= a.
  void load_iterate(std::span<const double> a_col,
                    std::span<const double> varphi_col, double mu, double nu,
                    double phi);

  /// Multi-process seam (docs/DISTRIBUTION.md): the post-round iterate of
  /// this datacenter as a StateSync message to the coordinator, so the
  /// coordinator-side shadow agent can track a remotely hosted one.
  Message make_state_sync(int iteration) const;
  /// Applies a StateSync produced by make_state_sync() in another process:
  /// adopts the remote iterate bit-for-bit and ages every proposal slot to
  /// the remote's reported oldest input round. Returns the largest
  /// |new - old| over the a, mu and nu values the shadow adopted. Malformed
  /// messages throw ufc::ContractViolation before anything is adopted: a
  /// wrong shape, an oldest input round that is not a whole number in
  /// [-1, message.iteration], or a stale count that is not a whole number
  /// in [0, 2^53].
  double sync_remote(const Message& message);

 private:
  DatacenterLocalConfig config_;
  Vec a_;      ///< a_.j^k (owned here).
  double mu_ = 0.0;
  double nu_ = 0.0;
  double phi_ = 0.0;
  /// Latest (lambda~_ij, varphi_ij) received per front-end and the
  /// iteration it came from (-1 = never); see FrontEndAgent's cache.
  Vec lambda_tilde_cache_;
  Vec varphi_cache_;
  std::vector<std::int32_t> last_proposal_round_;
  double last_balance_residual_ = 0.0;
  std::uint64_t stale_proposals_ = 0;
  /// This iteration's a-block prediction and the scratch that solves it.
  Vec a_tilde_;
  admm::BlockWorkspace blocks_;
};

}  // namespace ufc::net
