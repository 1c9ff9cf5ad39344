#include "net/supervisor.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "admm/telemetry.hpp"
#include "util/clock.hpp"
#include "util/contract.hpp"
#include "util/logging.hpp"

namespace ufc::net {

namespace {

/// Fault/checkpoint injection through the engine's telemetry seam: fires
/// after iteration `kill_at_round` / `checkpoint_at_round`, so the injected
/// SIGKILL lands between rounds — equivalent to an in-process FaultPlan
/// crash window starting at round kill_at_round + 1. Forwards every sample
/// to the caller's own observer, if any.
class SupervisorObserver final : public admm::IterationObserver {
 public:
  SupervisorObserver(admm::IterationObserver* inner, int kill_at_round,
                     int checkpoint_at_round)
      : inner_(inner),
        kill_at_round_(kill_at_round),
        checkpoint_at_round_(checkpoint_at_round) {}

  void arm(pid_t victim, DistributedAdmgRuntime* runtime) {
    victim_ = victim;
    runtime_ = runtime;
  }

  void on_iteration(const admm::IterationSample& sample) override {
    if (sample.iteration == kill_at_round_ && victim_ > 0 && !killed_) {
      log::warn("supervisor: SIGKILL worker pid ", victim_,
                " after iteration ", sample.iteration);
      (void)::kill(victim_, SIGKILL);
      killed_ = true;
    }
    if (sample.iteration == checkpoint_at_round_ && runtime_ != nullptr &&
        checkpoint_.empty()) {
      checkpoint_ = runtime_->checkpoint();
    }
    if (inner_ != nullptr) inner_->on_iteration(sample);
  }

  void on_solve_end(const admm::SolveCore& core) override {
    if (inner_ != nullptr) inner_->on_solve_end(core);
  }

  bool killed() const { return killed_; }
  std::vector<std::byte> take_checkpoint() { return std::move(checkpoint_); }

 private:
  admm::IterationObserver* inner_ = nullptr;
  int kill_at_round_ = -1;
  int checkpoint_at_round_ = -1;
  pid_t victim_ = -1;
  DistributedAdmgRuntime* runtime_ = nullptr;
  bool killed_ = false;
  std::vector<std::byte> checkpoint_;
};

/// The worker process body: round-driven datacenter hosting. Never returns.
[[noreturn]] void worker_main(const SupervisorOptions& options,
                              const SocketEndpoint& endpoint,
                              std::uint32_t worker_index,
                              std::vector<DatacenterAgent> agents,
                              std::size_t num_front_ends) {
  std::vector<NodeId> local_nodes;
  local_nodes.reserve(agents.size());
  for (const auto& agent : agents) local_nodes.push_back(agent.id());

  SocketBusConfig config;
  config.endpoint = endpoint;
  config.hub = false;
  config.worker_index = worker_index;
  config.local_nodes = local_nodes;
  config.max_attempts = 8;
  config.connect_timeout_ms = options.connect_timeout_ms;
  config.io_timeout_ms = options.io_timeout_ms;
  SocketBus socket(std::move(config));
  if (!socket.connect_to_hub(options.connect_timeout_ms)) _exit(2);

  const util::MonotonicTimer uptime;
  std::uint64_t rounds_processed = 0;
  std::vector<int> last_round(agents.size(), -1);
  while (!socket.shutdown_requested() && socket.hub_connected()) {
    socket.pump(50);
    for (std::size_t k = 0; k < agents.size(); ++k) {
      const NodeId node = agents[k].id();
      if (socket.max_pending_iteration(node) <= last_round[k]) continue;
      // The hub writes a round's proposals back-to-back; wait briefly for
      // the full complement so a chunk boundary cannot make inputs stale.
      const IoDeadline deadline(options.io_timeout_ms);
      while (socket.pending(node) < num_front_ends && !deadline.expired())
        socket.pump(deadline.remaining_ms());
      const std::int32_t round = socket.max_pending_iteration(node);
      socket.begin_round(round);
      agents[k].process_proposals(socket, round);
      // StateSync LAST: stream FIFO order then guarantees the coordinator
      // has this round's assignments once it sees the sync.
      (void)socket.send(agents[k].make_state_sync(round));
      last_round[k] = round;
      ++rounds_processed;
    }
  }

  if (socket.shutdown_requested()) {
    // Plain tables, not MetricsRegistry: the net layer cannot depend on
    // src/obs, so workers ship raw unprefixed names and the caller merges
    // them under a per-worker prefix (obs::record_counter_table).
    std::map<std::string, std::uint64_t> counters;
    counters["rounds_processed"] = rounds_processed;
    counters["net.bytes"] = socket.total().bytes;
    counters["net.messages"] = socket.total().messages;
    counters["net.delivery_failures"] = socket.total().delivery_failures;
    counters["net.retransmissions"] = socket.total().retransmissions;
    std::map<std::string, double> gauges;
    gauges["uptime_seconds"] = uptime.elapsed_seconds();
    (void)socket.send_metrics(counters, gauges, options.io_timeout_ms);
  }
  // _exit: never run the parent's inherited atexit/static teardown in the
  // child.
  _exit(0);
}

/// Reaps every child within the deadline; SIGKILLs and reaps stragglers.
/// Returns (clean exits, killed).
std::pair<std::size_t, std::size_t> reap_children(std::vector<pid_t> pids,
                                                  int deadline_ms) {
  const IoDeadline deadline(deadline_ms);
  std::size_t exited = 0;
  std::size_t killed = 0;
  std::vector<bool> reaped(pids.size(), false);
  std::size_t remaining = pids.size();
  while (remaining > 0) {
    for (std::size_t k = 0; k < pids.size(); ++k) {
      if (reaped[k]) continue;
      int status = 0;
      const pid_t rc = ::waitpid(pids[k], &status, WNOHANG);
      if (rc == pids[k]) {
        reaped[k] = true;
        --remaining;
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0)
          ++exited;
        else
          ++killed;
      } else if (rc < 0 && errno != EINTR) {
        // Already reaped elsewhere or invalid: stop tracking it.
        reaped[k] = true;
        --remaining;
      }
    }
    if (remaining == 0) break;
    if (deadline.expired()) {
      // Stragglers get SIGKILL and one final (near-instant) reap pass.
      for (std::size_t k = 0; k < pids.size(); ++k) {
        if (reaped[k]) continue;
        (void)::kill(pids[k], SIGKILL);
        int status = 0;
        (void)::waitpid(pids[k], &status, 0);
        reaped[k] = true;
        --remaining;
        ++killed;
      }
      break;
    }
    (void)::poll(nullptr, 0, 10);  // Brief sleep between reap passes.
  }
  return {exited, killed};
}

}  // namespace

Supervisor::Supervisor(const UfcProblem& problem, SupervisorOptions options)
    : problem_(problem), options_(std::move(options)) {
  problem_.validate();
  // A real fleet can always lose a worker mid-round, so the strict-lockstep
  // protocol (which treats any gap as a contract violation) is not an
  // option here.
  UFC_EXPECTS(options_.distributed.degraded);
  UFC_EXPECTS(options_.processes >= 1);
  UFC_EXPECTS(options_.round_deadline_ms >= 0);
  UFC_EXPECTS(options_.io_timeout_ms >= 0);
  UFC_EXPECTS(options_.connect_timeout_ms >= 0);
  UFC_EXPECTS(options_.kill_at_round >= -1);
  UFC_EXPECTS(options_.checkpoint_at_round >= -1);
  if (options_.kill_at_round >= 0)
    UFC_EXPECTS(options_.kill_worker < options_.processes);
}

SupervisedReport Supervisor::run() { return run_impl({}); }

SupervisedReport Supervisor::run(std::span<const std::byte> checkpoint) {
  UFC_EXPECTS(!checkpoint.empty());
  return run_impl(checkpoint);
}

SupervisedReport Supervisor::run_impl(std::span<const std::byte> checkpoint) {
  SocketEndpoint endpoint;
  if (options_.use_tcp) {
    endpoint.unix_path.clear();
    endpoint.tcp_port = 0;  // Ephemeral; resolved after bind.
  } else {
    endpoint.unix_path = options_.socket_dir + "/ufc_hub_" +
                         std::to_string(::getpid()) + ".sock";
  }

  const std::size_t m = problem_.num_front_ends();

  // Hub socket: coordinator + every front-end live in this process.
  SocketBusConfig hub_config;
  hub_config.endpoint = endpoint;
  hub_config.hub = true;
  hub_config.local_nodes.push_back(kCoordinatorId);
  for (std::size_t i = 0; i < m; ++i)
    hub_config.local_nodes.push_back(front_end_id(i));
  hub_config.max_attempts = 8;
  hub_config.connect_timeout_ms = options_.connect_timeout_ms;
  hub_config.io_timeout_ms = options_.io_timeout_ms;
  SocketBus hub(std::move(hub_config));
  if (options_.use_tcp) endpoint.tcp_port = hub.bound_tcp_port();

  // Coordinator runtime, with every datacenter hosted remotely. Observer
  // chain: the kill/checkpoint injector wraps whatever the caller set, and
  // must be installed before construction (the runtime copies its options).
  SupervisorObserver observer(options_.distributed.admg.observer,
                              options_.kill_at_round,
                              options_.checkpoint_at_round);
  DistributedOptions dist = options_.distributed;
  dist.admg.observer = &observer;
  DistributedAdmgRuntime runtime(problem_, std::move(dist), hub,
                                 options_.round_deadline_ms);
  if (!checkpoint.empty()) runtime.restore(checkpoint);

  // Deal the ACTIVE datacenters (a restored image may have fewer) round-
  // robin across workers, then fork the whole fleet before any child
  // connects — children close the listen fd first, so no worker can ever
  // inherit (and hold open) a sibling's accepted stream.
  const auto& active = runtime.active_datacenters();
  const std::size_t workers = std::min(options_.processes, active.size());
  const auto agents = runtime.datacenter_agents();
  std::vector<std::vector<DatacenterAgent>> hosted(workers);
  for (std::size_t pos = 0; pos < active.size(); ++pos)
    hosted[pos % workers].push_back(agents[pos]);

  std::vector<pid_t> pids;
  pids.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (pid_t child : pids) (void)::kill(child, SIGKILL);
      reap_children(pids, options_.io_timeout_ms);
      throw std::runtime_error("supervisor: fork failed");
    }
    if (pid == 0) {
      hub.close_for_child();
      worker_main(options_, endpoint, static_cast<std::uint32_t>(w),
                  std::move(hosted[w]), m);
    }
    pids.push_back(pid);
  }

  const std::size_t connected =
      hub.wait_for_workers(workers, options_.connect_timeout_ms);
  if (connected < workers)
    log::warn("supervisor: only ", connected, " of ", workers,
              " workers connected; the health table will remove the rest");
  if (options_.kill_at_round >= 0 && options_.kill_worker < pids.size())
    observer.arm(pids[options_.kill_worker], &runtime);
  else
    observer.arm(-1, &runtime);

  SupervisedReport report;
  static_cast<DistributedReport&>(report) = runtime.run();

  // Deterministic shutdown: Shutdown frame -> Metrics replies -> bounded
  // reap. Live workers answer with their measurement tables; the killed one
  // obviously cannot.
  hub.send_shutdown(options_.io_timeout_ms);
  const IoDeadline metrics_deadline(options_.io_timeout_ms);
  while (hub.connected_workers() > 0 && !metrics_deadline.expired())
    hub.pump(metrics_deadline.remaining_ms());
  const auto [exited, killed] =
      reap_children(pids, options_.connect_timeout_ms);

  report.workers_spawned = workers;
  report.workers_exited = exited;
  report.workers_killed = killed;
  report.worker_metrics = hub.take_worker_metrics();
  report.checkpoint_image = observer.take_checkpoint();
  return report;
}

}  // namespace ufc::net
