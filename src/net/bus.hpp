// In-process message bus with delivery accounting and fault injection.
//
// The bus models the WAN links between front-end proxies and datacenters:
// every send serializes the message (so byte counts are wire-realistic),
// simulates per-attempt loss and scripted faults from a FaultPlan, and
// enqueues at the destination. Two transport configurations exist:
//
//  * Legacy reliable transport (the default, max_attempts = 0): a lossy
//    link retransmits until delivery — the abstraction a synchronous ADMM
//    round needs. Iterates are unaffected by loss; only traffic grows.
//  * Deadline transport (max_attempts > 0): at most max_attempts
//    transmissions per message with round-based exponential backoff
//    accounting; exhaustion surfaces as SendOutcome::Failed and a
//    delivery_failures count instead of spinning forever. Scripted faults
//    (partitions, crashes, corruption, delay) require this mode — the
//    runtime's degraded protocol absorbs the resulting gaps.
//
// Per-link and global statistics let benchmarks report the communication
// cost of the distributed algorithm under every fault mix.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "net/faults.hpp"
#include "net/link_stats.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"
#include "util/rng.hpp"

namespace ufc::net {

struct BusConfig {
  std::uint64_t seed = 1;  ///< Drives every random fault draw.
  /// Per-message transmission cap. 0 = legacy unbounded retransmit (only
  /// valid for delivery-preserving plans); >= 1 enables the deadline
  /// transport. Contract-checked against the plan in the constructor.
  int max_attempts = 0;
  FaultPlan faults;
};

class MessageBus final : public Transport {
 public:
  /// Transport configured by `config`; the default is the zero-fault legacy
  /// reliable transport.
  explicit MessageBus(BusConfig config = {});

  /// Advances the bus clock to `round`: releases every delayed message whose
  /// release round has arrived (deterministic order: release round, then
  /// send order) into its destination queue. Scripted fault windows are
  /// evaluated against this clock.
  void begin_round(int round) override;

  /// Sends under the configured transport. Every attempt is counted in
  /// bytes; drops are counted as retransmissions. See SendOutcome.
  SendOutcome send(Message message) override;

  /// Pops the next pending message for `destination`, FIFO per destination.
  /// NON-BLOCKING (Transport contract): returns std::nullopt immediately
  /// when the queue is empty — there is no wait deadline because nothing can
  /// arrive while the caller holds the thread; delivery happens inside
  /// send() and begin_round().
  std::optional<Message> receive(NodeId destination) override;

  /// Drains all pending messages for `destination`. Non-blocking (see
  /// receive()).
  std::vector<Message> drain(NodeId destination) override;

  /// Number of messages currently queued for `destination`.
  std::size_t pending(NodeId destination) const override;

  /// Poll helper documenting the same deadline semantics as the socket
  /// transport: returns pending(destination) immediately, because simulated
  /// time does not pass while the caller waits — every message that can
  /// arrive this round is already queued. The deadline is accepted (and
  /// contract-checked non-negative) so callers are written once against the
  /// Transport contract.
  std::size_t poll_pending(NodeId destination, int deadline_ms) override;

  /// Messages in flight (delayed, not yet released).
  std::size_t delayed_pending() const { return delayed_.size(); }

  /// Drops every queued and delayed message (membership changes flush
  /// in-flight traffic; the degraded protocol absorbs the loss).
  void clear_queues() override;

  const BusConfig& config() const { return config_; }
  const LinkStats& total() const override { return total_; }
  /// Stats for the (source, destination) link; zeros if never used.
  LinkStats link(NodeId source, NodeId destination) const;

  void reset_stats();

 private:
  BusConfig config_;
  Rng rng_;
  int round_ = 0;
  std::uint64_t send_sequence_ = 0;
  std::map<NodeId, std::deque<Message>> queues_;
  /// Keyed by (release round, send sequence) for deterministic release order.
  std::map<std::pair<int, std::uint64_t>, Message> delayed_;
  std::map<std::pair<NodeId, NodeId>, LinkStats> links_;
  LinkStats total_;
};

}  // namespace ufc::net
