// FaultPlan semantics and the fault-injecting transport of MessageBus:
// scripted partitions/crashes, bounded loss with capped retries and backoff
// accounting, payload corruption, delivery delay, and determinism per seed.
#include <gtest/gtest.h>

#include "net/bus.hpp"
#include "net/faults.hpp"
#include "util/contract.hpp"

namespace ufc::net {
namespace {

Message make_message(NodeId src, NodeId dst, double value) {
  Message msg;
  msg.source = src;
  msg.destination = dst;
  msg.type = MessageType::RoutingProposal;
  msg.payload = {value};
  return msg;
}

TEST(FaultPlan, DefaultIsZeroFault) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(plan.delivery_preserving());
  EXPECT_FALSE(plan.link_blocked(front_end_id(0), datacenter_id(0), 0));
  EXPECT_FALSE(plan.node_down(datacenter_id(0), 0));
}

TEST(FaultPlan, LossAloneIsDeliveryPreserving) {
  FaultPlan plan;
  plan.random_faults({.loss_rate = 0.5});
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(plan.delivery_preserving());
}

TEST(FaultPlan, CorruptionDelayPartitionCrashAreNotDeliveryPreserving) {
  {
    FaultPlan plan;
    plan.random_faults({.corruption_rate = 0.1});
    EXPECT_FALSE(plan.delivery_preserving());
  }
  {
    FaultPlan plan;
    plan.random_faults({.delay_rate = 0.1});
    EXPECT_FALSE(plan.delivery_preserving());
  }
  {
    FaultPlan plan;
    plan.partition(front_end_id(0), datacenter_id(0), {0, 10});
    EXPECT_FALSE(plan.delivery_preserving());
  }
  {
    FaultPlan plan;
    plan.crash(datacenter_id(0), {0, kForeverRound});
    EXPECT_FALSE(plan.delivery_preserving());
  }
}

TEST(FaultPlan, PartitionIsSymmetricAndWindowed) {
  FaultPlan plan;
  plan.partition(front_end_id(0), datacenter_id(1), {3, 7});
  EXPECT_FALSE(plan.link_blocked(front_end_id(0), datacenter_id(1), 2));
  EXPECT_TRUE(plan.link_blocked(front_end_id(0), datacenter_id(1), 3));
  EXPECT_TRUE(plan.link_blocked(datacenter_id(1), front_end_id(0), 6));
  EXPECT_FALSE(plan.link_blocked(front_end_id(0), datacenter_id(1), 7));
  EXPECT_FALSE(plan.link_blocked(front_end_id(0), datacenter_id(0), 5));
}

TEST(FaultPlan, CrashWindowIsHalfOpen) {
  FaultPlan plan;
  plan.crash(datacenter_id(0), {2, 5});
  EXPECT_FALSE(plan.node_down(datacenter_id(0), 1));
  EXPECT_TRUE(plan.node_down(datacenter_id(0), 2));
  EXPECT_TRUE(plan.node_down(datacenter_id(0), 4));
  EXPECT_FALSE(plan.node_down(datacenter_id(0), 5));
  EXPECT_FALSE(plan.node_down(datacenter_id(1), 3));
}

TEST(FaultPlan, ValidatesSpecs) {
  FaultPlan plan;
  EXPECT_THROW(plan.partition(front_end_id(0), front_end_id(0), {0, 5}),
               ContractViolation);
  EXPECT_THROW(plan.partition(front_end_id(0), datacenter_id(0), {5, 5}),
               ContractViolation);
  EXPECT_THROW(plan.partition(front_end_id(0), datacenter_id(0), {-1, 5}),
               ContractViolation);
  EXPECT_THROW(plan.crash(kCoordinatorId, {0, 5}), ContractViolation);
  EXPECT_THROW(plan.random_faults({.loss_rate = 1.0}), ContractViolation);
  EXPECT_THROW(plan.random_faults({.loss_rate = -0.1}), ContractViolation);
  EXPECT_THROW(plan.random_faults({.corruption_rate = -0.1}),
               ContractViolation);
  EXPECT_THROW(plan.random_faults({.delay_rate = 0.5, .max_delay_rounds = 0}),
               ContractViolation);
}

TEST(FaultBus, NonPreservingPlanRequiresAttemptCap) {
  BusConfig config;
  config.faults.partition(front_end_id(0), datacenter_id(0), {0, 5});
  EXPECT_THROW(MessageBus{config}, ContractViolation);
  config.max_attempts = 1;
  EXPECT_NO_THROW(MessageBus{config});
}

TEST(FaultBus, NegativeAttemptCapThrows) {
  BusConfig config;
  config.max_attempts = -1;
  EXPECT_THROW(MessageBus{config}, ContractViolation);
}

TEST(FaultBus, PartitionExhaustsAttemptsWithBackoffAccounting) {
  BusConfig config;
  config.max_attempts = 3;
  config.faults.partition(front_end_id(0), datacenter_id(0),
                          {0, kForeverRound});
  MessageBus bus(config);
  const auto msg = make_message(front_end_id(0), datacenter_id(0), 1.0);

  EXPECT_EQ(bus.send(msg), SendOutcome::Failed);
  const auto link = bus.link(front_end_id(0), datacenter_id(0));
  EXPECT_EQ(link.delivery_failures, 1u);
  EXPECT_EQ(link.retransmissions, 3u);       // every attempt dropped
  EXPECT_EQ(link.bytes, 3 * wire_size(msg));  // all attempts on the wire
  EXPECT_EQ(link.messages, 0u);              // never delivered
  // Exponential backoff before retries 2 and 3: 2^0 + 2^1 rounds.
  EXPECT_EQ(link.backoff_rounds, 3u);
  EXPECT_EQ(bus.pending(datacenter_id(0)), 0u);

  // An unrelated link is unaffected.
  EXPECT_EQ(bus.send(make_message(front_end_id(1), datacenter_id(0), 2.0)),
            SendOutcome::Delivered);
}

TEST(FaultBus, CrashedEndpointFailsSends) {
  BusConfig config;
  config.max_attempts = 2;
  config.faults.crash(datacenter_id(0), {1, 3});
  MessageBus bus(config);
  const auto msg = make_message(front_end_id(0), datacenter_id(0), 1.0);

  bus.begin_round(0);
  EXPECT_EQ(bus.send(msg), SendOutcome::Delivered);
  bus.begin_round(1);
  EXPECT_EQ(bus.send(msg), SendOutcome::Failed);
  bus.begin_round(3);
  EXPECT_EQ(bus.send(msg), SendOutcome::Delivered);
  EXPECT_EQ(bus.total().delivery_failures, 1u);
}

TEST(FaultBus, CorruptionDiscardsFrameAndCounts) {
  BusConfig config;
  config.max_attempts = 1;
  config.faults.random_faults({.corruption_rate = 0.999});
  MessageBus bus(config);
  // Under ASan/UBSan this also fuzzes deserialize on mutated frames: the
  // bus decodes every corrupted frame before discarding it.
  for (int k = 0; k < 50; ++k)
    bus.send(make_message(front_end_id(0), datacenter_id(0), 1.0));
  EXPECT_GT(bus.total().corrupted, 40u);
  EXPECT_EQ(bus.total().corrupted + bus.pending(datacenter_id(0)), 50u);
}

TEST(FaultBus, DelayedMessagesReleaseInDeterministicOrder) {
  BusConfig config;
  config.max_attempts = 1;
  config.faults.random_faults({.delay_rate = 0.999, .max_delay_rounds = 2});
  MessageBus bus(config);
  bus.begin_round(0);
  int delayed = 0;
  for (int k = 0; k < 20; ++k) {
    const auto outcome =
        bus.send(make_message(front_end_id(0), datacenter_id(0), k));
    if (outcome == SendOutcome::Delayed) ++delayed;
  }
  EXPECT_GT(delayed, 15);
  EXPECT_EQ(bus.delayed_pending(), static_cast<std::size_t>(delayed));

  // Advancing the clock far enough releases everything, in send order per
  // release round.
  bus.begin_round(3);
  EXPECT_EQ(bus.delayed_pending(), 0u);
  EXPECT_EQ(bus.pending(datacenter_id(0)), 20u);
  // Messages release grouped by release round, send order preserved within
  // each group; with max_delay_rounds = 2 the payload sequence can descend
  // at most once per group boundary.
  double prev = -1.0;
  int descents = 0;
  while (auto msg = bus.receive(datacenter_id(0))) {
    if (msg->payload[0] < prev) ++descents;
    prev = msg->payload[0];
  }
  EXPECT_LE(descents, 2);
}

TEST(FaultBus, OutcomeAccountingIsConserved) {
  BusConfig config;
  config.max_attempts = 4;
  config.faults.random_faults({.loss_rate = 0.2,
                               .corruption_rate = 0.1,
                               .delay_rate = 0.3,
                               .max_delay_rounds = 3});
  MessageBus bus(config);
  std::size_t delivered = 0, delayed = 0, corrupted = 0, failed = 0;
  for (int round = 0; round < 20; ++round) {
    bus.begin_round(round);
    for (int k = 0; k < 10; ++k) {
      switch (bus.send(make_message(front_end_id(0), datacenter_id(0), k))) {
        case SendOutcome::Delivered: ++delivered; break;
        case SendOutcome::Delayed: ++delayed; break;
        case SendOutcome::Corrupted: ++corrupted; break;
        case SendOutcome::Failed: ++failed; break;
      }
    }
  }
  EXPECT_EQ(delivered + delayed + corrupted + failed, 200u);
  // Release all in-flight messages; every delayed send must surface.
  bus.begin_round(25);
  EXPECT_EQ(bus.delayed_pending(), 0u);
  EXPECT_EQ(bus.pending(datacenter_id(0)), delivered + delayed);
  EXPECT_EQ(bus.total().corrupted, corrupted);
  EXPECT_EQ(bus.total().delivery_failures, failed);
  EXPECT_EQ(bus.total().delayed, delayed);
}

TEST(FaultBus, SameSeedSameOutcomes) {
  auto run = [] {
    BusConfig config;
    config.seed = 1234;
    config.max_attempts = 3;
    config.faults.random_faults({.loss_rate = 0.3,
                                 .corruption_rate = 0.2,
                                 .delay_rate = 0.2,
                                 .max_delay_rounds = 2});
    MessageBus bus(config);
    for (int round = 0; round < 10; ++round) {
      bus.begin_round(round);
      for (std::size_t k = 0; k < 10; ++k)
        bus.send(make_message(front_end_id(k), datacenter_id(0),
                              static_cast<double>(k)));
    }
    return bus.total();
  };
  const LinkStats a = run();
  const LinkStats b = run();
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.delivery_failures, b.delivery_failures);
  EXPECT_EQ(a.corrupted, b.corrupted);
  EXPECT_EQ(a.delayed, b.delayed);
  EXPECT_EQ(a.backoff_rounds, b.backoff_rounds);
}

TEST(FaultBus, ClearQueuesDropsDeliveredAndDelayed) {
  BusConfig config;
  config.max_attempts = 1;
  config.faults.random_faults({.delay_rate = 0.5, .max_delay_rounds = 1});
  MessageBus bus(config);
  for (int k = 0; k < 20; ++k)
    bus.send(make_message(front_end_id(0), datacenter_id(0), k));
  bus.clear_queues();
  EXPECT_EQ(bus.pending(datacenter_id(0)), 0u);
  EXPECT_EQ(bus.delayed_pending(), 0u);
}

TEST(FaultBus, ZeroFaultConfigMatchesLegacyTransport) {
  MessageBus legacy;
  MessageBus configured{BusConfig{}};
  const auto msg = make_message(front_end_id(0), datacenter_id(0), 42.0);
  EXPECT_EQ(legacy.send(msg), SendOutcome::Delivered);
  EXPECT_EQ(configured.send(msg), SendOutcome::Delivered);
  EXPECT_EQ(legacy.total().messages, configured.total().messages);
  EXPECT_EQ(legacy.total().bytes, configured.total().bytes);
}

}  // namespace
}  // namespace ufc::net
