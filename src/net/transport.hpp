// The transport contract shared by every bus the distributed protocol can
// run on: the in-process MessageBus (bus.hpp) and the socket-backed
// SocketBus (socket_bus.hpp).
//
// Both transports document identical semantics (docs/DISTRIBUTION.md):
//
//  * receive()/drain() are NON-BLOCKING: they return whatever is queued
//    locally and never wait for the network. Waiting is explicit and
//    deadline-bounded through poll_pending() — no Transport call may block
//    forever.
//  * send() is synchronous and returns a SendOutcome. Failed means the
//    transport exhausted its per-message attempt budget (loss, partition or
//    a crashed/unreachable peer); the degraded protocol absorbs the gap.
//  * begin_round() advances the transport's protocol clock. The in-process
//    bus uses it to release delayed messages and evaluate fault windows;
//    the socket bus, whose clock is the wall clock, only checks it.
//
// Agents (agents.hpp) and the runtime (runtime.hpp) are written against this
// interface only, so the same protocol code runs unchanged in one process or
// across N real OS processes.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "net/link_stats.hpp"
#include "net/message.hpp"

namespace ufc::net {

/// What became of one send() call.
enum class SendOutcome {
  Delivered,  ///< Enqueued at the destination (or handed to the OS stream).
  Delayed,    ///< In flight; released by a later begin_round().
  Corrupted,  ///< Transmitted but discarded by the receiver integrity check.
  Failed,     ///< Attempt cap exhausted (loss, partition or crashed peer).
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Advances the protocol clock to `round` (monotone non-decreasing).
  virtual void begin_round(int round) = 0;

  /// Sends under the transport's delivery model. Never blocks forever: a
  /// socket transport bounds every connect/write with a deadline and
  /// surfaces exhaustion as SendOutcome::Failed.
  virtual SendOutcome send(Message message) = 0;

  /// Pops the next locally queued message for `destination`, FIFO per
  /// destination. Non-blocking: never waits for the network.
  virtual std::optional<Message> receive(NodeId destination) = 0;

  /// Drains all locally queued messages for `destination`. Non-blocking.
  virtual std::vector<Message> drain(NodeId destination) = 0;

  /// Number of messages currently queued for `destination`. Non-blocking.
  virtual std::size_t pending(NodeId destination) const = 0;

  /// Waits until at least one message is queued for `destination` or
  /// `deadline_ms` elapses, then returns pending(destination). This is the
  /// ONLY Transport call that may wait, and it is always deadline-bounded.
  /// The in-process bus returns immediately (simulated time does not pass
  /// while the caller spins); the socket bus polls the wire.
  virtual std::size_t poll_pending(NodeId destination, int deadline_ms) = 0;

  /// Drops every queued (and in-flight, where the transport can reach it)
  /// message: membership changes flush traffic addressed to the old
  /// topology; the degraded protocol treats the flushed messages as lost.
  virtual void clear_queues() = 0;

  /// Aggregate traffic counters across all links.
  virtual const LinkStats& total() const = 0;
};

}  // namespace ufc::net
