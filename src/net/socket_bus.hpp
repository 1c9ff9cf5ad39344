// Socket-backed Transport: the distributed ADM-G protocol over N real OS
// processes (docs/DISTRIBUTION.md).
//
// Topology is hub-and-spoke. The coordinator process is the hub: it binds a
// Unix-domain (default) or TCP-loopback listening socket, accepts one stream
// per worker, and routes frames by destination node. Worker processes
// connect, announce the nodes they host with a Hello frame, and then
// exchange Data frames carrying the existing wire codec (message.hpp) —
// the inner message format is byte-identical to the in-process bus, wrapped
// in an outer length-prefixed frame so a stream can carry many messages.
//
// Robustness contract (the reason this file exists):
//  * No call may block forever. Every fd is non-blocking; every wait is a
//    poll() bounded by an explicit deadline threaded through the call.
//  * A declared frame length above kMaxFrameBytes is rejected (throws
//    ContractViolation) as soon as the 8-byte header is visible — before
//    any body byte arrives and before any allocation.
//  * Connect failures retry with the bus's capped exponential backoff
//    accounting (2^min(k-1, 10) rounds per retry); exhausting max_attempts
//    surfaces as SendOutcome::Failed, never as a hang.
//  * Peer death (EOF, ECONNRESET) is detected on the next pump and reported
//    through take_newly_disconnected(), feeding the coordinator's health
//    table and the graceful-degradation path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/link_stats.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"
#include "util/clock.hpp"

namespace ufc::net {

/// Monotonic deadline for socket waits, on the repo's sanctioned clock seam
/// (util/clock.hpp). remaining_ms() counts down from the budget and clamps
/// at 0; a budget of 0 means "check once, never wait".
class IoDeadline {
 public:
  explicit IoDeadline(int budget_ms)
      : start_(util::monotonic_now()), budget_ms_(budget_ms < 0 ? 0 : budget_ms) {}

  int remaining_ms() const {
    const double elapsed_ms =
        util::seconds_between(start_, util::monotonic_now()) * 1000.0;
    const double left = static_cast<double>(budget_ms_) - elapsed_ms;
    return left <= 0.0 ? 0 : static_cast<int>(left);
  }
  bool expired() const { return remaining_ms() == 0; }

 private:
  util::MonotonicTick start_;
  int budget_ms_;
};

// --------------------------------------------------------------------------
// Stream framing. Exposed here (not buried in the .cpp) so the fuzz tests
// can hammer the parser with truncated, oversized and interleaved inputs
// without opening a single socket.

/// Outer frame kinds. Data wraps one serialized Message; the rest are
/// control frames between hub and workers.
enum class FrameKind : std::uint32_t {
  Hello = 1,     ///< Worker -> hub: worker index + hosted node ids.
  Data = 2,      ///< One serialized Message (message.hpp codec).
  Metrics = 3,   ///< Worker -> hub: counter/gauge tables (shutdown reply).
  Shutdown = 4,  ///< Hub -> worker: finish the current round and exit.
};

/// Upper bound on a frame body. A hostile or corrupt length prefix above
/// this is rejected before any allocation; the largest legitimate frame (a
/// StateSync for thousands of front-ends) stays far below it.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 20;

struct Frame {
  FrameKind kind = FrameKind::Data;
  std::vector<std::byte> body;
};

/// [u32 kind][u32 body length][body]. Contract-checks the body size.
std::vector<std::byte> encode_frame(FrameKind kind,
                                    std::span<const std::byte> body);

/// Incremental frame parser over an arbitrary chunking of the stream: bytes
/// may arrive one at a time or many frames at once; next() yields complete
/// frames in order. Malformed headers (unknown kind, body length above
/// kMaxFrameBytes) throw ContractViolation from next() as soon as the
/// header's 8 bytes are buffered — before the declared body is allocated or
/// waited for.
class FrameReader {
 public:
  /// Appends raw stream bytes (contract-checks the span: null data with a
  /// nonzero size is rejected). Never parses, so valid input never throws.
  void feed(std::span<const std::byte> bytes);

  /// Returns the next complete frame, or std::nullopt if the buffered bytes
  /// end mid-frame. Throws ContractViolation on a malformed header.
  std::optional<Frame> next();

  /// Bytes buffered but not yet returned as frames.
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::vector<std::byte> buffer_;
  std::size_t consumed_ = 0;
};

/// Hello body codec: worker index + the node ids hosted by that worker.
std::vector<std::byte> encode_hello_body(std::uint32_t worker_index,
                                         std::span<const NodeId> nodes);
struct HelloBody {
  std::uint32_t worker_index = 0;
  std::vector<NodeId> nodes;
};
/// Throws ContractViolation on malformed input (hardened like deserialize).
HelloBody decode_hello_body(std::span<const std::byte> body);

/// Metrics body codec: plain counter/gauge tables, so the net layer can
/// ship per-worker measurements to the hub without depending on src/obs
/// (the layer DAG forbids net -> obs).
std::vector<std::byte> encode_metrics_body(
    const std::map<std::string, std::uint64_t>& counters,
    const std::map<std::string, double>& gauges);
struct MetricsBody {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
};
/// Throws ContractViolation on malformed input.
MetricsBody decode_metrics_body(std::span<const std::byte> body);

// --------------------------------------------------------------------------
// The transport.

/// Where the hub listens / the workers connect.
struct SocketEndpoint {
  /// Non-empty = Unix-domain socket at this filesystem path (the default
  /// transport: no ports, no firewalls, removed on close).
  std::string unix_path;
  /// Used when unix_path is empty: TCP on loopback. Port 0 lets the hub
  /// bind an ephemeral port; read it back with bound_tcp_port() and pass it
  /// to the workers.
  std::string tcp_host = "127.0.0.1";
  int tcp_port = 0;
};

struct SocketBusConfig {
  SocketEndpoint endpoint;
  /// true = this process is the hub (binds + listens + routes); false = a
  /// worker (connects to the hub).
  bool hub = false;
  /// Worker-only: this worker's index, announced in the Hello frame so the
  /// hub reports health and metrics deterministically by index.
  std::uint32_t worker_index = 0;
  /// Nodes hosted in THIS process. Sends between two local nodes
  /// short-circuit to the local queues and never touch a socket.
  std::vector<NodeId> local_nodes;
  /// Per-send connect attempt cap. Unlike the in-process bus there is no
  /// delivery-preserving configuration on a real network, so 0 (unbounded)
  /// is a contract violation: the constructor requires >= 1.
  int max_attempts = 4;
  /// Deadline for one connect attempt (workers) / handshake wait (hub).
  int connect_timeout_ms = 2000;
  /// Deadline for one blocking write when the stream is congested.
  int io_timeout_ms = 2000;
};

/// Transport over real OS sockets. Single-threaded by design: all calls on
/// one SocketBus must come from one thread (each process owns exactly one
/// bus); concurrency happens between processes, not within.
class SocketBus final : public Transport {
 public:
  /// Hub: binds and listens. Worker: prepares lazily — the first send() or
  /// connect_to_hub() dials the hub. Throws ContractViolation on config
  /// errors, std::runtime_error when the OS refuses the endpoint.
  explicit SocketBus(SocketBusConfig config);
  ~SocketBus() override;

  SocketBus(const SocketBus&) = delete;
  SocketBus& operator=(const SocketBus&) = delete;

  // Transport contract -----------------------------------------------------
  void begin_round(int round) override;
  /// Local destination: enqueues directly. Remote: frames and writes to the
  /// peer stream, connecting first if needed. Deadline-bounded; exhaustion
  /// of max_attempts (connect) or io_timeout_ms (write) returns Failed.
  SendOutcome send(Message message) override;
  std::optional<Message> receive(NodeId destination) override;
  std::vector<Message> drain(NodeId destination) override;
  std::size_t pending(NodeId destination) const override;
  /// Pumps the wire until a message for `destination` is queued or the
  /// deadline elapses, then returns pending(destination).
  std::size_t poll_pending(NodeId destination, int deadline_ms) override;
  void clear_queues() override;
  const LinkStats& total() const override { return total_; }

  // Wire pumping -----------------------------------------------------------
  /// Reads everything available on every stream (accepting new connections
  /// on the hub), waiting at most `deadline_ms` for the FIRST readable fd;
  /// once bytes flow it drains without further waiting. Returns true if at
  /// least one frame was dispatched. This is the single place where the OS
  /// is read; receive()/drain() only look at local queues.
  bool pump(int deadline_ms);

  /// Highest message iteration currently queued for `destination`
  /// (-1 = queue empty). Workers use it to detect that a new round's inputs
  /// have fully arrived.
  std::int32_t max_pending_iteration(NodeId destination) const;

  /// Nodes whose hosting peer died (EOF/reset) since the last call; cleared
  /// on return. The runtime folds these into its health table.
  std::vector<NodeId> take_newly_disconnected();

  // Hub-side control -------------------------------------------------------
  /// Pumps until `count` workers have completed their Hello handshake or
  /// the deadline elapses; returns the number connected.
  std::size_t wait_for_workers(std::size_t count, int deadline_ms);
  std::size_t connected_workers() const;
  /// Broadcasts a Shutdown frame to every live worker.
  void send_shutdown(int deadline_ms);
  struct WorkerMetrics {
    std::uint32_t worker_index = 0;
    MetricsBody tables;
  };
  /// Metrics frames received so far, sorted by worker index (deterministic
  /// merge order); cleared on return.
  std::vector<WorkerMetrics> take_worker_metrics();
  /// TCP hub only: the ephemeral port the listen socket bound.
  int bound_tcp_port() const;

  // Worker-side control ----------------------------------------------------
  /// Dials the hub now (instead of lazily on first send). Returns false if
  /// every attempt failed within the deadline.
  bool connect_to_hub(int deadline_ms);
  /// true once a Shutdown frame has been received.
  bool shutdown_requested() const { return shutdown_requested_; }
  /// true while the stream to the hub is up (a worker whose hub vanished
  /// has nothing left to do but exit).
  bool hub_connected() const;
  /// Sends a Metrics frame to the hub (the worker's shutdown reply).
  SendOutcome send_metrics(const std::map<std::string, std::uint64_t>& counters,
                           const std::map<std::string, double>& gauges,
                           int deadline_ms);

  /// Fork hygiene: a child that inherited this (hub) bus closes the listen
  /// socket and every accepted stream so it cannot steal the parent's
  /// connections, without unlinking the parent's Unix socket path.
  void close_for_child();

 private:
  struct Peer;  // One accepted worker stream (hub) or the hub stream (worker).

  bool is_local(NodeId node) const;
  /// Routes one decoded frame from `peer`; queues or forwards Data frames.
  void dispatch(Peer& peer, Frame frame);
  /// Marks the peer dead and records its nodes as newly disconnected.
  void mark_dead(Peer& peer);
  /// Reads until EAGAIN on one stream; returns frames dispatched.
  std::size_t drain_fd(Peer& peer);
  /// Deadline-bounded blocking write of a fully framed buffer.
  bool write_all(Peer& peer, std::span<const std::byte> bytes,
                 int deadline_ms);
  Peer* peer_for(NodeId destination);
  void accept_ready();

  SocketBusConfig config_;
  int listen_fd_ = -1;
  int bound_tcp_port_ = 0;
  bool shutdown_requested_ = false;
  /// Hub only: whether this process should unlink the Unix socket path on
  /// destruction (cleared by close_for_child so a forked child cannot tear
  /// down the parent's endpoint).
  bool owns_unix_path_ = false;
  std::vector<std::unique_ptr<Peer>> peers_;
  std::map<NodeId, std::deque<Message>> queues_;
  std::map<NodeId, std::size_t> node_owner_;  ///< NodeId -> peers_ index.
  std::vector<NodeId> newly_disconnected_;
  std::vector<WorkerMetrics> worker_metrics_;
  std::map<std::pair<NodeId, NodeId>, LinkStats> links_;
  LinkStats total_;
};

}  // namespace ufc::net
