// DistributedAdmgRuntime: drives the full message-passing protocol —
// M front-end agents, N datacenter agents and a convergence coordinator on
// one Transport — and produces the same AdmgReport as the monolithic
// solver. This is the executable demonstration that the paper's algorithm
// is *fully distributed*: strip away the bus and each node touches only its
// Fig. 2 tuple.
//
// The runtime is the engine's message-passing BlockExecutor
// (admm/engine.hpp): one engine step is one protocol round plus the
// degraded-mode membership check. The coordinator reads per-node scalars
// only: the agents' residual reports, each datacenter's largest move of the
// round (which its own correction computes) and the agents' input rounds
// for the freshness gate.
//
// Two operating modes (docs/ROBUSTNESS.md):
//
//  * Strict lockstep (default): every message arrives within its round
//    (legacy reliable transport) and rounds are bit-identical to
//    AdmgSolver::step(). Requires a delivery-preserving fault plan.
//  * Degraded (options.degraded): rounds proceed on the latest value
//    received from each peer, under message loss, delay, partitions and
//    crashes. The coordinator declares a datacenter dead after
//    dead_after_rounds silent rounds and gracefully degrades: the dead
//    datacenter's capacity is removed and the surviving agents warm-restart
//    on the reduced problem. A solver watchdog (shared with AdmgSolver)
//    catches non-finite iterates and residual stalls and can fall back to
//    the centralized reference solver.
//
// Hosting is all-or-nothing: every agent runs in this process on the
// in-process MessageBus, or — as the coordinator of a net::Supervisor fleet
// (docs/DISTRIBUTION.md) — every datacenter runs in a worker process and
// the runtime keeps shadow agents for them, fed by StateSync messages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "admm/admg.hpp"
#include "net/agents.hpp"
#include "net/bus.hpp"
#include "net/faults.hpp"

namespace ufc::net {

class SocketBus;

struct DistributedOptions {
  admm::AdmgOptions admg;     ///< Same knobs as the monolithic solver; the
                              ///< watchdog / fallback fields govern the
                              ///< runtime's watchdog too.
  /// Seeds every random fault draw on the bus (BusConfig::seed).
  std::uint64_t loss_seed = 1;
  /// Scripted + seeded-random fault environment for the bus; message loss
  /// is faults.random().loss_rate.
  FaultPlan faults;
  /// Per-message transmission cap (see BusConfig). Must stay 0 in strict
  /// mode; must be >= 1 when the plan is not delivery-preserving.
  int max_attempts = 0;
  /// Enables the degraded (stale-tolerant) protocol described above.
  bool degraded = false;
  /// Silent rounds after which the coordinator declares a datacenter dead
  /// (degraded mode only).
  int dead_after_rounds = 5;
};

/// Report of a distributed solve: the shared SolveCore plus the network- and
/// membership-level outcomes only this driver produces.
struct DistributedReport : admm::SolveCore {
  /// Agent inputs served from a previous iteration's value (0 in strict mode).
  std::uint64_t stale_inputs = 0;
  /// Original datacenter indices still participating / removed by
  /// graceful degradation (removal order preserved).
  std::vector<std::size_t> active_datacenters;
  std::vector<std::size_t> removed_datacenters;
  LinkStats network;   ///< Total traffic including retransmissions.
};

class DistributedAdmgRuntime final : public admm::BlockExecutor {
 public:
  /// Every agent in this process, on the in-process MessageBus.
  DistributedAdmgRuntime(const UfcProblem& problem,
                         DistributedOptions options = {});
  /// The coordinator of a supervised fleet (net::Supervisor): every
  /// datacenter is hosted in a worker process and every protocol message
  /// travels `hub` (not owned; must outlive the runtime). Each round waits
  /// up to `round_deadline_ms` for the workers' replies; a worker that
  /// misses it contributes stale inputs that round and is eventually
  /// declared dead via the health table. Requires a delivery-preserving
  /// fault plan: remote datacenter crashes arrive as EOFs, not FaultPlan
  /// windows.
  DistributedAdmgRuntime(const UfcProblem& problem, DistributedOptions options,
                         SocketBus& hub, int round_deadline_ms);

  /// Runs rounds until the coordinator sees both scaled residuals below
  /// tolerance, or max_iterations: AdmgEngine::solve on this executor.
  /// Resumable: a second call (or a call after restore()) continues from the
  /// next round.
  DistributedReport run();

  // ---- BlockExecutor ------------------------------------------------------
  /// One protocol round, then (degraded mode) the membership check. Exposed
  /// so tests can compare against AdmgSolver::step() iterate-by-iterate.
  /// Crashed nodes skip their procedures; the coordinator records who
  /// reported.
  void step(int iteration) override;
  bool topology_changed() override { return topology_changed_; }
  /// A round may declare convergence only when every input it consumed is
  /// recent — oldest cached round within stale_bound_ of the current round.
  bool inputs_fresh(int iteration) const override;
  double balance_residual() const override;  ///< Max over datacenter reports.
  double copy_residual() const override;     ///< Max over front-end reports.
  /// Largest a/mu/nu move of the last round: the maximum of the moves the
  /// datacenters that stepped reported (0 on a round that removed one).
  double last_change() const override { return change_; }
  double balance_scale() const override { return scales_.balance; }
  double copy_scale() const override { return scales_.copy; }
  double objective() const override;
  /// True iff every agent's local state is finite.
  bool iterate_finite() const override;
  double workload_scale() const override { return sigma_; }
  /// The (possibly reduced) problem the runtime currently optimizes, in the
  /// caller's original units.
  const UfcProblem& original_problem() const override { return original_; }
  /// The current global iterate assembled from the agents' local state, in
  /// normalized workload units (matching AdmgSolver's accessors). Columns
  /// are positional over the *active* datacenters.
  Mat gather_lambda() const override;
  Vec gather_mu() const override;
  Vec nu() const;
  Mat a() const;

  const MessageBus& bus() const { return bus_; }
  /// Total stale-input count across all agents (see DistributedReport).
  std::uint64_t stale_inputs() const;
  /// Original indices of the datacenters still participating.
  const std::vector<std::size_t>& active_datacenters() const {
    return active_dcs_;
  }
  const std::vector<std::size_t>& removed_datacenters() const {
    return removed_dcs_;
  }
  int next_round() const { return next_round_; }

  /// The datacenter agents, positional with active_datacenters(). A forked
  /// worker process copies the ones it hosts out of the inherited runtime —
  /// after a checkpoint restore they carry the restored iterate, so the
  /// whole fleet resumes from one consistent image.
  std::span<const DatacenterAgent> datacenter_agents() const {
    return datacenters_;
  }

  /// Serializes the complete solver-relevant state: active membership,
  /// every agent's iterate and caches, coordinator health table and round
  /// counter — via the shared wire codec. In-flight bus messages are part
  /// of the fault environment, not solver state, and are NOT captured
  /// (after restore they count as lost; the degraded protocol absorbs
  /// that, and zero-fault checkpoints are taken at round boundaries where
  /// nothing is in flight).
  std::vector<std::byte> checkpoint() const;
  /// Restores a checkpoint() image into a runtime constructed with the same
  /// problem and options. The image's active set must be reachable from
  /// this runtime's (a subset); anything malformed throws
  /// ufc::ContractViolation.
  void restore(std::span<const std::byte> bytes);

 private:
  /// (Re)creates all agents for the current problem_/active_dcs_, with
  /// cold-start state.
  void build_agents();
  /// Declares and removes every datacenter silent for dead_after_rounds as
  /// of `round` — or, once its hosting peer's stream reported EOF/reset,
  /// silent for just one round; returns true if the topology changed.
  bool remove_dead(int round);
  /// Coordinator inbox handler: ConvergenceReport updates the health table;
  /// StateSync additionally refreshes the remote datacenter's shadow agent
  /// and folds the shadow's move into the round's change.
  void absorb_coordinator_message(const Message& message, int iteration);
  /// Remote phase of step(): pumps the socket until every live datacenter
  /// has delivered this round's StateSync (stream order guarantees its
  /// assignments arrived first) or the round deadline elapses, folding
  /// EOF'd peers into the health machinery.
  void pump_remote(int iteration);
  /// Removes the datacenter at active position `pos`, warm-restarting the
  /// survivors on the reduced problem. Returns false (and keeps the
  /// datacenter) when removal would make the problem infeasible or empty.
  bool remove_datacenter(std::size_t pos);

  UfcProblem original_;  ///< As given, minus removed datacenters.
  UfcProblem problem_;   ///< Workload-normalized (agents see this).
  DistributedOptions options_;
  ProtocolConfig protocol_;
  double sigma_ = 1.0;
  MessageBus bus_;
  /// Every protocol send/receive goes through this: &bus_, or the fleet's
  /// hub socket.
  Transport* transport_ = nullptr;
  /// The fleet's hub socket; null when every agent runs in this process.
  SocketBus* socket_ = nullptr;
  int round_deadline_ms_ = 0;  ///< Fleet only: per-round wait for workers.
  std::vector<FrontEndAgent> front_ends_;
  std::vector<DatacenterAgent> datacenters_;
  /// Original index of each active datacenter, positional with
  /// datacenters_; removal order of the dead ones.
  std::vector<std::size_t> active_dcs_;
  std::vector<std::size_t> removed_dcs_;
  /// Coordinator health table: last round a ConvergenceReport from this
  /// node was received (absent = never).
  std::map<NodeId, int> last_seen_;
  /// Nodes whose hosting stream died (EOF/ECONNRESET). Real liveness signal:
  /// remove_dead() gives these a one-round grace instead of
  /// dead_after_rounds.
  std::set<NodeId> eof_nodes_;
  /// Newest StateSync round received per remote datacenter.
  std::map<NodeId, int> remote_synced_;
  /// Degraded-mode convergence gate: a round may declare convergence only
  /// when every agent input is at most this many rounds old — the bounded
  /// input-age criterion (docs/ROBUSTNESS.md). It is 1 + max_delay_rounds
  /// when random delay is active, else 1: the envelope eventual delivery
  /// keeps every age inside. Silence from a crashed or partitioned peer
  /// grows the age without bound and keeps blocking convergence until the
  /// health tracker or the watchdog acts.
  int stale_bound_ = 1;
  int next_round_ = 0;
  admm::ResidualScales scales_;  ///< Recomputed after every removal.
  double change_ = 0.0;          ///< See last_change().
  bool topology_changed_ = false;
};

}  // namespace ufc::net
