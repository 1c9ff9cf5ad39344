#include <gtest/gtest.h>

#include <cstdint>

#include "net/bus.hpp"

namespace ufc::net {
namespace {

/// The legacy reliable transport over a lossy link: each attempt is dropped
/// with probability `loss_rate` and retried.
BusConfig lossy_config(double loss_rate, std::uint64_t seed) {
  BusConfig config;
  config.seed = seed;
  config.faults.random_faults({.loss_rate = loss_rate});
  return config;
}

Message make_message(NodeId src, NodeId dst, double value) {
  Message msg;
  msg.source = src;
  msg.destination = dst;
  msg.type = MessageType::RoutingProposal;
  msg.payload = {value};
  return msg;
}

TEST(MessageBus, DeliversFifoPerDestination) {
  MessageBus bus;
  bus.send(make_message(front_end_id(0), datacenter_id(0), 1.0));
  bus.send(make_message(front_end_id(1), datacenter_id(0), 2.0));
  bus.send(make_message(front_end_id(0), datacenter_id(1), 3.0));

  EXPECT_EQ(bus.pending(datacenter_id(0)), 2u);
  auto first = bus.receive(datacenter_id(0));
  ASSERT_TRUE(first.has_value());
  EXPECT_DOUBLE_EQ(first->payload[0], 1.0);
  auto second = bus.receive(datacenter_id(0));
  ASSERT_TRUE(second.has_value());
  EXPECT_DOUBLE_EQ(second->payload[0], 2.0);
  EXPECT_FALSE(bus.receive(datacenter_id(0)).has_value());
  EXPECT_EQ(bus.pending(datacenter_id(1)), 1u);
}

TEST(MessageBus, DrainEmptiesQueue) {
  MessageBus bus;
  for (int k = 0; k < 5; ++k)
    bus.send(make_message(front_end_id(k), datacenter_id(2), k));
  const auto all = bus.drain(datacenter_id(2));
  EXPECT_EQ(all.size(), 5u);
  EXPECT_EQ(bus.pending(datacenter_id(2)), 0u);
  EXPECT_TRUE(bus.drain(datacenter_id(2)).empty());
}

TEST(MessageBus, CountsMessagesAndBytes) {
  MessageBus bus;
  const auto msg = make_message(front_end_id(0), datacenter_id(0), 1.0);
  bus.send(msg);
  bus.send(msg);
  EXPECT_EQ(bus.total().messages, 2u);
  EXPECT_EQ(bus.total().bytes, 2 * wire_size(msg));
  EXPECT_EQ(bus.total().retransmissions, 0u);
  const auto link = bus.link(front_end_id(0), datacenter_id(0));
  EXPECT_EQ(link.messages, 2u);
  EXPECT_EQ(bus.link(front_end_id(9), datacenter_id(0)).messages, 0u);
}

TEST(MessageBus, LossInjectionRetransmitsButAlwaysDelivers) {
  MessageBus bus(lossy_config(0.5, 99));
  const auto msg = make_message(front_end_id(0), datacenter_id(0), 7.0);
  for (int k = 0; k < 200; ++k) bus.send(msg);
  // Every message arrives despite 50% per-attempt loss.
  EXPECT_EQ(bus.pending(datacenter_id(0)), 200u);
  EXPECT_EQ(bus.total().messages, 200u);
  // Expected ~200 retransmissions at 50% loss; allow a broad band.
  EXPECT_GT(bus.total().retransmissions, 100u);
  EXPECT_LT(bus.total().retransmissions, 400u);
  // Bytes include the dropped attempts.
  EXPECT_EQ(bus.total().bytes,
            (200 + bus.total().retransmissions) * wire_size(msg));
}

TEST(MessageBus, LossIsDeterministicPerSeed) {
  MessageBus a(lossy_config(0.3, 7)), b(lossy_config(0.3, 7));
  const auto msg = make_message(front_end_id(0), datacenter_id(0), 1.0);
  for (int k = 0; k < 100; ++k) {
    a.send(msg);
    b.send(msg);
  }
  EXPECT_EQ(a.total().retransmissions, b.total().retransmissions);
}

TEST(MessageBus, PayloadSurvivesWireCodec) {
  MessageBus bus;
  Message msg = make_message(front_end_id(4), datacenter_id(3), 0.0);
  msg.payload = {1e-300, -1e300, 3.141592653589793};
  bus.send(msg);
  const auto received = bus.receive(datacenter_id(3));
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->payload, msg.payload);
}

TEST(MessageBus, ResetStatsClearsCounters) {
  MessageBus bus;
  bus.send(make_message(front_end_id(0), datacenter_id(0), 1.0));
  bus.reset_stats();
  EXPECT_EQ(bus.total().messages, 0u);
  EXPECT_EQ(bus.link(front_end_id(0), datacenter_id(0)).messages, 0u);
}

}  // namespace
}  // namespace ufc::net
