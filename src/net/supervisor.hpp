// Process supervision for the socket-backed distributed runtime
// (docs/DISTRIBUTION.md).
//
// The Supervisor turns one DistributedAdmgRuntime into a real multi-process
// fleet: it binds the hub socket, forks N worker processes (each hosting a
// share of the datacenter agents), runs the coordinator solve in the parent
// and shuts the fleet down deterministically — Shutdown frame, Metrics
// reply, bounded waitpid, SIGKILL for stragglers.
//
// Robustness machinery under test rides on two seams:
//  * Fault injection: kill_at_round SIGKILLs a chosen worker after that
//    engine iteration (through the IterationObserver seam, so the injection
//    can never touch the iterate). The coordinator sees the EOF, declares
//    the orphaned datacenters dead after one silent round and gracefully
//    degrades — the same membership/warm-restart path the in-process
//    degraded runtime exercises with scripted FaultPlan crashes.
//  * Crash-restart: checkpoint_at_round captures the coordinator's UFCR
//    checkpoint mid-solve; run(checkpoint) restores it before forking, so
//    a brand-new fleet resumes from the image.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/runtime.hpp"
#include "net/socket_bus.hpp"

namespace ufc::net {

struct SupervisorOptions {
  /// Runtime knobs for the coordinator. degraded must be true (a real fleet
  /// can always lose a worker mid-round); the fault plan must be
  /// delivery-preserving. Every datacenter is hosted in a worker process.
  DistributedOptions distributed;
  /// Worker processes to fork; active datacenters are dealt round-robin.
  /// Clamped to the number of datacenters.
  std::size_t processes = 2;
  /// Directory for the hub's Unix socket (ignored with use_tcp).
  std::string socket_dir = "/tmp";
  /// false = Unix-domain socket (default); true = TCP on loopback with an
  /// ephemeral port.
  bool use_tcp = false;
  /// Per-round wait for the workers' replies. A worker that misses the
  /// deadline contributes stale inputs that round and is eventually
  /// declared dead via the health table.
  int round_deadline_ms = 4000;
  /// Deadline for individual socket writes / worker round waits.
  int io_timeout_ms = 2000;
  /// Deadline for worker connect + hub handshake collection.
  int connect_timeout_ms = 4000;
  /// Fault injection: after engine iteration kill_at_round, SIGKILL worker
  /// kill_worker. -1 = never.
  int kill_at_round = -1;
  std::size_t kill_worker = 0;
  /// Capture the coordinator checkpoint after this iteration. -1 = never.
  int checkpoint_at_round = -1;
};

/// DistributedReport plus the process-level outcomes only a real fleet has.
struct SupervisedReport : DistributedReport {
  std::size_t workers_spawned = 0;
  /// Workers reaped with a kill signal (includes the injected SIGKILL and
  /// shutdown stragglers).
  std::size_t workers_killed = 0;
  /// Workers that exited cleanly after the Shutdown frame.
  std::size_t workers_exited = 0;
  /// Per-worker measurement tables (sorted by worker index — deterministic
  /// merge order), shipped in Metrics frames at shutdown.
  std::vector<SocketBus::WorkerMetrics> worker_metrics;
  /// The UFCR image captured at checkpoint_at_round (empty otherwise);
  /// feed it to run(checkpoint) to crash-restart the fleet.
  std::vector<std::byte> checkpoint_image;
};

class Supervisor {
 public:
  /// Validates options (degraded protocol required, >= 1 process). The
  /// problem is copied; nothing is forked until run().
  Supervisor(const UfcProblem& problem, SupervisorOptions options);

  /// Fresh fleet solve.
  SupervisedReport run();
  /// Crash-restart: restores the UFCR image into the coordinator before
  /// forking, so workers inherit the restored iterate.
  SupervisedReport run(std::span<const std::byte> checkpoint);

 private:
  SupervisedReport run_impl(std::span<const std::byte> checkpoint);

  UfcProblem problem_;
  SupervisorOptions options_;
};

}  // namespace ufc::net
