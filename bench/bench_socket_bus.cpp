// Transport overhead of the socket-backed bus (docs/DISTRIBUTION.md).
//
// Replays synthetic ADM-G protocol rounds — M front-ends propose to N
// datacenters, the datacenters reply with assignments — over the three
// transports the distributed runtime can run on:
//
//   in_process    MessageBus, everything in one address space (the baseline
//                 every fault-injection test is pinned against)
//   unix          SocketBus over a Unix-domain socket pair, hub on the main
//                 thread and the datacenter side on a second thread (the
//                 same topology as a Supervisor fleet, minus fork)
//   tcp           the same over TCP loopback
//
// Reported per (transport, M, N): protocol rounds per second and bytes per
// round, as counted by the hub-side bus (the in-process row counts both
// directions, the socket rows the hub's egress plus frame headers — the
// inner wire codec is identical everywhere). The socket rows price the real
// cost of process isolation: framing, syscalls and scheduler handoffs. A
// rate or byte count that is not positive and finite means the transport
// moved nothing, and the bench exits 1 after printing every row.
#include "bench_common.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "net/bus.hpp"
#include "net/message.hpp"
#include "net/socket_bus.hpp"
#include "util/clock.hpp"

namespace {

using namespace ufc;
using namespace ufc::net;

struct TransportPoint {
  std::string transport;
  std::size_t m = 0;
  std::size_t n = 0;
  int rounds = 0;
  double rounds_per_sec = 0.0;
  double bytes_per_round = 0.0;
};

Message make_proposal(std::size_t i, std::size_t j, int iteration) {
  Message msg;
  msg.source = front_end_id(i);
  msg.destination = datacenter_id(j);
  msg.type = MessageType::RoutingProposal;
  msg.iteration = iteration;
  msg.payload = {static_cast<double>(i) + 0.25, static_cast<double>(j) - 0.5};
  return msg;
}

Message make_assignment(const Message& proposal) {
  Message msg;
  msg.source = proposal.destination;
  msg.destination = proposal.source;
  msg.type = MessageType::RoutingAssignment;
  msg.iteration = proposal.iteration;
  msg.payload = {proposal.payload[0] * 0.5};
  return msg;
}

/// One protocol round against an in-process bus: M*N proposals out, M*N
/// assignments back, everything through the serialize/deserialize codec.
TransportPoint run_in_process(std::size_t m, std::size_t n, int rounds) {
  MessageBus bus{BusConfig{}};
  for (int k = 1; k <= rounds; ++k) {
    bus.begin_round(k);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j) bus.send(make_proposal(i, j, k));
    for (std::size_t j = 0; j < n; ++j)
      for (const Message& proposal : bus.drain(datacenter_id(j)))
        bus.send(make_assignment(proposal));
    for (std::size_t i = 0; i < m; ++i) (void)bus.drain(front_end_id(i));
  }
  // Timed pass after a warm-up sweep of the same shape.
  const util::MonotonicTimer timer;
  for (int k = rounds + 1; k <= 2 * rounds; ++k) {
    bus.begin_round(k);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j) bus.send(make_proposal(i, j, k));
    for (std::size_t j = 0; j < n; ++j)
      for (const Message& proposal : bus.drain(datacenter_id(j)))
        bus.send(make_assignment(proposal));
    for (std::size_t i = 0; i < m; ++i) (void)bus.drain(front_end_id(i));
  }
  const double seconds = timer.elapsed_seconds();
  TransportPoint point{"in_process", m, n, rounds};
  point.rounds_per_sec = rounds / seconds;
  point.bytes_per_round =
      static_cast<double>(bus.total().bytes) / (2.0 * rounds);
  return point;
}

SocketBusConfig hub_config(const SocketEndpoint& endpoint, std::size_t m) {
  SocketBusConfig config;
  config.endpoint = endpoint;
  config.hub = true;
  config.local_nodes.push_back(kCoordinatorId);
  for (std::size_t i = 0; i < m; ++i)
    config.local_nodes.push_back(front_end_id(i));
  return config;
}

SocketBusConfig worker_config(const SocketEndpoint& endpoint, std::size_t n) {
  SocketBusConfig config;
  config.endpoint = endpoint;
  config.hub = false;
  config.worker_index = 0;
  for (std::size_t j = 0; j < n; ++j)
    config.local_nodes.push_back(datacenter_id(j));
  return config;
}

/// Datacenter side of the protocol, running on its own thread with its own
/// bus: echo every proposal as an assignment until the hub says shutdown.
void worker_loop(const SocketEndpoint& endpoint, std::size_t n) {
  SocketBus bus(worker_config(endpoint, n));
  if (!bus.connect_to_hub(5000)) return;
  while (!bus.shutdown_requested() && bus.hub_connected()) {
    bus.pump(100);
    for (std::size_t j = 0; j < n; ++j)
      for (const Message& proposal : bus.drain(datacenter_id(j)))
        bus.send(make_assignment(proposal));
  }
}

TransportPoint run_socket(const std::string& transport, std::size_t m,
                          std::size_t n, int rounds) {
  SocketEndpoint endpoint;
  if (transport == "unix")
    endpoint.unix_path = "/tmp/ufc_bench_socket_bus_" +
                         std::to_string(::getpid()) + ".sock";
  SocketBus hub(hub_config(endpoint, m));
  SocketEndpoint worker_endpoint = endpoint;
  if (transport != "unix") worker_endpoint.tcp_port = hub.bound_tcp_port();
  std::thread worker(worker_loop, worker_endpoint, n);
  hub.wait_for_workers(1, 5000);

  const auto run_round = [&](int k) {
    hub.begin_round(k);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j) hub.send(make_proposal(i, j, k));
    std::size_t received = 0;
    const IoDeadline deadline(5000);
    while (received < m * n && !deadline.expired()) {
      hub.pump(deadline.remaining_ms());
      for (std::size_t i = 0; i < m; ++i)
        received += hub.drain(front_end_id(i)).size();
    }
  };
  for (int k = 1; k <= rounds; ++k) run_round(k);  // warm-up
  const util::MonotonicTimer timer;
  for (int k = rounds + 1; k <= 2 * rounds; ++k) run_round(k);
  const double seconds = timer.elapsed_seconds();

  hub.send_shutdown(2000);
  worker.join();
  TransportPoint point{transport, m, n, rounds};
  point.rounds_per_sec = rounds / seconds;
  point.bytes_per_round =
      static_cast<double>(hub.total().bytes) / (2.0 * rounds);
  return point;
}

}  // namespace

int main() {
  bench::print_header(
      "Socket transport overhead",
      "distributed runtime robustness study (docs/DISTRIBUTION.md)");

  const auto sizes = bench::bench_sizes(
      {{4, 3, 200}, {10, 4, 100}, {20, 6, 50}});
  const std::vector<std::string> transports = {"in_process", "unix", "tcp"};

  CsvWriter csv("ufc_socket_bus.csv",
                {"transport", "m", "n", "rounds", "rounds_per_sec",
                 "bytes_per_round"});
  const auto positive = [](double value) {
    return std::isfinite(value) && value > 0.0;
  };
  bool failed = false;
  std::printf("%-12s %6s %6s %8s %16s %16s\n", "transport", "M", "N",
              "rounds", "rounds/sec", "bytes/round");
  for (const auto& size : sizes) {
    for (const auto& transport : transports) {
      const TransportPoint point =
          transport == "in_process"
              ? run_in_process(size.m, size.n, size.iterations)
              : run_socket(transport, size.m, size.n, size.iterations);
      std::printf("%-12s %6zu %6zu %8d %16.0f %16.1f\n",
                  point.transport.c_str(), point.m, point.n, point.rounds,
                  point.rounds_per_sec, point.bytes_per_round);
      csv.row_strings({point.transport,
                       csv_number(static_cast<double>(point.m)),
                       csv_number(static_cast<double>(point.n)),
                       csv_number(static_cast<double>(point.rounds)),
                       csv_number(point.rounds_per_sec),
                       csv_number(point.bytes_per_round)});
      if (!positive(point.rounds_per_sec) ||
          !positive(point.bytes_per_round)) {
        std::fprintf(stderr,
                     "%s at %zux%zu: rounds/sec and bytes/round must be "
                     "positive and finite\n",
                     point.transport.c_str(), point.m, point.n);
        failed = true;
      }
    }
  }
  bench::note_csv(csv);
  return failed ? 1 : 0;
}
