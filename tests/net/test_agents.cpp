#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "net/agents.hpp"
#include "net/bus.hpp"
#include "util/contract.hpp"

namespace ufc::net {
namespace {

FrontEndLocalConfig make_fe_config() {
  FrontEndLocalConfig cfg;
  cfg.index = 0;
  cfg.arrival = 1.0;
  cfg.latency_row_s = Vec{0.01, 0.03};
  cfg.latency_weight = 10.0;
  cfg.utility = std::make_shared<QuadraticUtility>();
  cfg.protocol.rule.rho = 0.3;
  return cfg;
}

DatacenterLocalConfig make_dc_config(std::size_t index = 0) {
  DatacenterLocalConfig cfg;
  cfg.index = index;
  cfg.num_front_ends = 1;
  cfg.data = {.alpha_mw = 0.12,
              .beta_mw = 1.2e-4,
              .capacity_servers = 2.0,
              .fuel_cell_capacity_mw = 0.5,
              .fuel_cell_price = 80.0,
              .grid_price = 40.0,
              .carbon_tons_per_mwh = 0.5};
  cfg.emission_cost = std::make_shared<AffineCarbonTax>(25.0);
  cfg.protocol.rule.rho = 0.3;
  return cfg;
}

TEST(FrontEndAgent, SendsOneProposalPerDatacenter) {
  MessageBus bus;
  FrontEndAgent agent(make_fe_config());
  agent.send_proposals(bus, 0);
  EXPECT_EQ(bus.pending(datacenter_id(0)), 1u);
  EXPECT_EQ(bus.pending(datacenter_id(1)), 1u);

  const auto msg = bus.receive(datacenter_id(0));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, MessageType::RoutingProposal);
  EXPECT_EQ(msg->iteration, 0);
  ASSERT_EQ(msg->payload.size(), 2u);  // lambda~ and varphi
}

TEST(FrontEndAgent, FirstProposalRoutesNearestUnderColdStart) {
  // With a = varphi = 0, the lambda sub-problem reduces to pure utility:
  // everything to the nearest (10 ms) datacenter plus the rho/2 ||lambda||^2
  // proximal term, which spreads slightly; nearest must still dominate.
  MessageBus bus;
  FrontEndAgent agent(make_fe_config());
  agent.send_proposals(bus, 0);
  const auto to_near = bus.receive(datacenter_id(0));
  const auto to_far = bus.receive(datacenter_id(1));
  ASSERT_TRUE(to_near && to_far);
  EXPECT_GT(to_near->payload[0], to_far->payload[0]);
  EXPECT_NEAR(to_near->payload[0] + to_far->payload[0], 1.0, 1e-8);
}

TEST(FrontEndAgent, MissingAssignmentThrows) {
  MessageBus bus;
  FrontEndAgent agent(make_fe_config());
  agent.send_proposals(bus, 0);
  bus.drain(datacenter_id(0));
  bus.drain(datacenter_id(1));
  // Only one of the two expected assignments arrives.
  Message reply;
  reply.source = datacenter_id(0);
  reply.destination = agent.id();
  reply.type = MessageType::RoutingAssignment;
  reply.iteration = 0;
  reply.payload = {0.5};
  bus.send(reply);
  EXPECT_THROW(agent.process_assignments(bus, 0), ContractViolation);
}

TEST(FrontEndAgent, StaleIterationThrows) {
  MessageBus bus;
  FrontEndAgent agent(make_fe_config());
  agent.send_proposals(bus, 3);
  Message reply;
  reply.source = datacenter_id(0);
  reply.destination = agent.id();
  reply.type = MessageType::RoutingAssignment;
  reply.iteration = 2;  // stale
  reply.payload = {0.5};
  bus.send(reply);
  Message reply2 = reply;
  reply2.source = datacenter_id(1);
  bus.send(reply2);
  EXPECT_THROW(agent.process_assignments(bus, 3), ContractViolation);
}

TEST(DatacenterAgent, RepliesToEveryFrontEndAndReportsResidual) {
  MessageBus bus;
  DatacenterAgent dc(make_dc_config());
  Message proposal;
  proposal.source = front_end_id(0);
  proposal.destination = dc.id();
  proposal.type = MessageType::RoutingProposal;
  proposal.iteration = 0;
  proposal.payload = {1.0, 0.0};
  bus.send(proposal);

  dc.process_proposals(bus, 0);
  EXPECT_EQ(bus.pending(front_end_id(0)), 1u);
  EXPECT_EQ(bus.pending(kCoordinatorId), 1u);
  EXPECT_GE(dc.last_balance_residual(), 0.0);
}

TEST(DatacenterAgent, MissingProposalThrows) {
  MessageBus bus;
  auto cfg = make_dc_config();
  cfg.num_front_ends = 2;
  DatacenterAgent dc(cfg);
  Message proposal;
  proposal.source = front_end_id(0);
  proposal.destination = dc.id();
  proposal.type = MessageType::RoutingProposal;
  proposal.iteration = 0;
  proposal.payload = {1.0, 0.0};
  bus.send(proposal);  // second front-end never reports
  EXPECT_THROW(dc.process_proposals(bus, 0), ContractViolation);
}

/// A worker-side datacenter after one round, and the StateSync it sends.
Message one_round_state_sync(DatacenterAgent& worker) {
  MessageBus bus;
  Message proposal;
  proposal.source = front_end_id(0);
  proposal.destination = worker.id();
  proposal.type = MessageType::RoutingProposal;
  proposal.iteration = 0;
  proposal.payload = {1.0, 0.0};
  bus.send(proposal);
  (void)worker.process_proposals(bus, 0);
  return worker.make_state_sync(0);
}

TEST(DatacenterAgent, SyncRemoteRejectsMalformedAgeFields) {
  DatacenterAgent worker(make_dc_config());
  const Message sync = one_round_state_sync(worker);
  DatacenterAgent shadow(make_dc_config());

  // The oldest input round and the stale count arrive as doubles from
  // another process. Casting NaN, 1e300 or -7 to an integer is undefined
  // behaviour; 2.5 is no round; an input newer than the sync is impossible.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double oldest : {nan, 1e300, -7.0, 2.5, 1.0}) {
    Message bad = sync;
    bad.payload[4] = oldest;
    EXPECT_THROW(shadow.sync_remote(bad), ContractViolation)
        << "oldest input round " << oldest;
  }
  for (const double stale : {nan, 1e300, -1.0, 2.5, 0x1p53 + 2.0}) {
    Message bad = sync;
    bad.payload[5] = stale;
    EXPECT_THROW(shadow.sync_remote(bad), ContractViolation)
        << "stale count " << stale;
  }
  // A rejected message leaves the shadow untouched.
  EXPECT_EQ(shadow.mu(), 0.0);
  EXPECT_EQ(shadow.a_col()[0], 0.0);
  EXPECT_EQ(shadow.oldest_input_round(), -1);
  EXPECT_EQ(shadow.stale_proposals(), 0u);

  shadow.sync_remote(sync);
  EXPECT_EQ(shadow.mu(), worker.mu());
  EXPECT_EQ(shadow.oldest_input_round(), 0);
}

TEST(DatacenterAgent, SyncRemoteReturnsTheShadowsMove) {
  DatacenterAgent worker(make_dc_config());
  const Message sync = one_round_state_sync(worker);
  DatacenterAgent shadow(make_dc_config());

  // The shadow starts from the cold iterate (all zero), so its move is the
  // largest |a|, |mu| or |nu| the worker reached; phi is not part of it.
  const double moved = std::max({std::abs(worker.a_col()[0]),
                                 std::abs(worker.mu()), std::abs(worker.nu())});
  ASSERT_GT(moved, 0.0);
  EXPECT_EQ(shadow.sync_remote(sync), moved);
  // Adopting the same state again moves nothing.
  EXPECT_EQ(shadow.sync_remote(sync), 0.0);
}

TEST(DatacenterAgent, ConflictingPinningThrows) {
  auto cfg = make_dc_config();
  cfg.protocol.rule.pin_mu = true;
  cfg.protocol.rule.pin_nu = true;
  EXPECT_THROW(DatacenterAgent{cfg}, ContractViolation);
}

TEST(Agents, NullFunctionPointersThrow) {
  auto fe = make_fe_config();
  fe.utility = nullptr;
  EXPECT_THROW(FrontEndAgent{fe}, ContractViolation);

  auto dc = make_dc_config();
  dc.emission_cost = nullptr;
  EXPECT_THROW(DatacenterAgent{dc}, ContractViolation);
}

}  // namespace
}  // namespace ufc::net
