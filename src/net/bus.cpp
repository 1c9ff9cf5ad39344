#include "net/bus.hpp"

#include <algorithm>

#include "util/contract.hpp"

namespace ufc::net {

namespace {

// Backoff before the k-th retry: 2^(k-1) rounds, capped so pathological
// attempt caps cannot overflow the accounting.
std::uint64_t backoff_rounds_before_retry(int failed_attempts) {
  return std::uint64_t{1} << std::min(failed_attempts - 1, 10);
}

}  // namespace

MessageBus::MessageBus(BusConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  UFC_EXPECTS(config_.max_attempts >= 0);
  // Scripted partitions/crashes and random corruption/delay make individual
  // messages undeliverable; an unbounded retransmit loop would spin forever.
  // Contract-check the cap against the plan up front.
  UFC_EXPECTS(config_.max_attempts >= 1 ||
              config_.faults.delivery_preserving());
}

void MessageBus::begin_round(int round) {
  UFC_EXPECTS(round >= 0);
  round_ = round;
  while (!delayed_.empty() && delayed_.begin()->first.first <= round) {
    auto node = delayed_.extract(delayed_.begin());
    Message& msg = node.mapped();
    queues_[msg.destination].push_back(std::move(msg));
  }
}

SendOutcome MessageBus::send(Message message) {
  UFC_EXPECTS(message.source >= kCoordinatorId);
  UFC_EXPECTS(message.destination >= kCoordinatorId);
  const std::size_t size = wire_size(message);
  auto& link = links_[{message.source, message.destination}];
  const auto& rf = config_.faults.random();
  const bool blocked =
      config_.faults.link_blocked(message.source, message.destination,
                                  round_) ||
      config_.faults.node_down(message.source, round_) ||
      config_.faults.node_down(message.destination, round_);

  // Transmission attempts. Every attempt is counted in bytes; a blocked
  // link never consults the loss draw (the partition decides, not chance),
  // so zero-fault and loss-only runs keep the legacy RNG sequence exactly.
  int attempt = 0;
  while (true) {
    ++attempt;
    link.bytes += size;
    total_.bytes += size;
    const bool dropped =
        blocked || (rf.loss_rate > 0.0 && rng_.bernoulli(rf.loss_rate));
    if (!dropped) break;
    ++link.retransmissions;
    ++total_.retransmissions;
    if (config_.max_attempts > 0 && attempt >= config_.max_attempts) {
      ++link.delivery_failures;
      ++total_.delivery_failures;
      return SendOutcome::Failed;
    }
    // Round-based exponential backoff before the retry (accounting only:
    // the simulated clock advances per protocol round, not per retry).
    const std::uint64_t backoff = backoff_rounds_before_retry(attempt);
    link.backoff_rounds += backoff;
    total_.backoff_rounds += backoff;
  }
  ++link.messages;
  ++total_.messages;

  // Serialization + deserialization exercises the wire codec on every
  // delivery.
  auto wire = serialize(message);
  if (rf.corruption_rate > 0.0 && rng_.bernoulli(rf.corruption_rate)) {
    // Mutate 1-4 wire bytes. The receiver's integrity check discards the
    // frame whether or not it still parses; decoding is attempted anyway so
    // sanitizer builds exercise deserialize on hostile bytes continuously.
    const auto flips = rng_.uniform_int(1, 4);
    for (std::int64_t f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(wire.size()) - 1));
      const auto mask =
          static_cast<unsigned char>(rng_.uniform_int(1, 255));
      wire[pos] ^= static_cast<std::byte>(mask);
    }
    try {
      (void)deserialize(wire);
    } catch (const ContractViolation&) {
      // Expected for most mutations; the frame is discarded either way.
    }
    ++link.corrupted;
    ++total_.corrupted;
    return SendOutcome::Corrupted;
  }

  Message delivered = deserialize(wire);
  if (rf.delay_rate > 0.0 && rng_.bernoulli(rf.delay_rate)) {
    const auto delay = static_cast<int>(
        rng_.uniform_int(1, rf.max_delay_rounds));
    ++link.delayed;
    ++total_.delayed;
    delayed_.emplace(std::pair{round_ + delay, send_sequence_++},
                     std::move(delivered));
    return SendOutcome::Delayed;
  }
  queues_[delivered.destination].push_back(std::move(delivered));
  return SendOutcome::Delivered;
}

std::optional<Message> MessageBus::receive(NodeId destination) {
  UFC_EXPECTS(destination >= kCoordinatorId);
  auto it = queues_.find(destination);
  if (it == queues_.end() || it->second.empty()) return std::nullopt;
  Message message = std::move(it->second.front());
  it->second.pop_front();
  return message;
}

std::vector<Message> MessageBus::drain(NodeId destination) {
  UFC_EXPECTS(destination >= kCoordinatorId);
  std::vector<Message> messages;
  auto it = queues_.find(destination);
  if (it == queues_.end()) return messages;
  messages.assign(std::make_move_iterator(it->second.begin()),
                  std::make_move_iterator(it->second.end()));
  it->second.clear();
  return messages;
}

std::size_t MessageBus::pending(NodeId destination) const {
  UFC_EXPECTS(destination >= kCoordinatorId);
  auto it = queues_.find(destination);
  return it == queues_.end() ? 0 : it->second.size();
}

std::size_t MessageBus::poll_pending(NodeId destination, int deadline_ms) {
  // In-process, waiting cannot make anything arrive: delivery happens inside
  // send() and begin_round(), both of which run on the caller's own thread.
  // The deadline is therefore accepted but never waited out.
  UFC_EXPECTS(deadline_ms >= 0);
  return pending(destination);
}

void MessageBus::clear_queues() {
  queues_.clear();
  delayed_.clear();
}

LinkStats MessageBus::link(NodeId source, NodeId destination) const {
  UFC_EXPECTS(source >= kCoordinatorId);
  UFC_EXPECTS(destination >= kCoordinatorId);
  auto it = links_.find({source, destination});
  return it == links_.end() ? LinkStats{} : it->second;
}

void MessageBus::reset_stats() {
  links_.clear();
  total_ = LinkStats{};
}

}  // namespace ufc::net
