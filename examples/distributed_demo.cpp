// Distributed execution demo: runs the same UFC slot through (a) the
// monolithic ADM-G solver and (b) the message-passing runtime — ten
// front-end agents and four datacenter agents exchanging only the paper's
// Fig. 2 messages over a lossy bus — and shows that the iterates are
// identical while reporting the WAN traffic the protocol costs.
//
//   $ ./example_distributed_demo [loss_rate] [--metrics <path>]
//       [--processes N] [--transport unix|tcp] [--kill-round R]
//       [--kill-worker W] [--checkpoint-round C]
//
// --metrics writes a ufc-run-v1 manifest holding both solve reports and the
// bus traffic counters (net.* metrics via obs::record_link_stats).
//
// --processes switches the datacenter agents from in-process message passing
// to a real forked fleet over the socket bus (docs/DISTRIBUTION.md): the
// coordinator and front-ends stay in the parent, N worker processes host the
// datacenters. --kill-round SIGKILLs a worker mid-solve to demonstrate
// graceful degradation; --checkpoint-round captures a UFCR image and
// crash-restarts a brand-new fleet from it. loss_rate simulates the
// in-process bus only and is ignored by the socket fleet (real sockets lose
// real messages instead).
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "admm/admg.hpp"
#include "net/runtime.hpp"
#include "net/supervisor.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics_observer.hpp"
#include "traces/scenario.hpp"
#include "util/table.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: example_distributed_demo [loss_rate] [--metrics <path>]\n"
         "         [--processes N] [--transport unix|tcp] [--kill-round R]\n"
         "         [--kill-worker W] [--checkpoint-round C]\n"
         "  loss_rate    per-attempt message-loss probability in [0, 1)\n"
         "               (default 0.15; in-process bus only)\n"
         "  --metrics    write a ufc-run-v1 manifest with both reports\n"
         "               and the bus traffic counters\n"
         "  --processes  fork N worker processes hosting the datacenter\n"
         "               agents over the socket bus (default: in-process)\n"
         "  --transport  socket flavour for the fleet: unix (default) or\n"
         "               tcp loopback\n"
         "  --kill-round SIGKILL a worker after this engine iteration to\n"
         "               demonstrate graceful degradation\n"
         "  --kill-worker  which worker index --kill-round targets\n"
         "               (default 0)\n"
         "  --checkpoint-round  capture a UFCR checkpoint after this\n"
         "               iteration and crash-restart a fresh fleet from it\n";
  return 2;
}

bool parse_int_flag(const std::string& flag, const std::string& value,
                    long& out) {
  const auto result =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (result.ec != std::errc() || result.ptr != value.data() + value.size()) {
    std::cerr << "error: " << flag << " '" << value
              << "' is not an integer\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ufc;

  std::vector<std::string> positional;
  std::string metrics_path;
  std::string transport = "unix";
  long processes = 0;
  long kill_round = -1;
  long kill_worker = 0;
  long checkpoint_round = -1;
  for (int arg = 1; arg < argc; ++arg) {
    const std::string token = argv[arg];
    if (token == "--metrics") {
      if (arg + 1 >= argc) {
        std::cerr << "error: --metrics requires a path argument\n";
        return usage();
      }
      metrics_path = argv[++arg];
    } else if (token == "--transport") {
      if (arg + 1 >= argc) {
        std::cerr << "error: --transport requires unix or tcp\n";
        return usage();
      }
      transport = argv[++arg];
      if (transport != "unix" && transport != "tcp") {
        std::cerr << "error: unknown transport '" << transport << "'\n";
        return usage();
      }
    } else if (token == "--processes" || token == "--kill-round" ||
               token == "--kill-worker" || token == "--checkpoint-round") {
      if (arg + 1 >= argc) {
        std::cerr << "error: " << token << " requires an integer argument\n";
        return usage();
      }
      long value = 0;
      if (!parse_int_flag(token, argv[++arg], value)) return usage();
      if (token == "--processes") {
        if (value < 1) {
          std::cerr << "error: --processes must be >= 1\n";
          return usage();
        }
        processes = value;
      } else if (token == "--kill-round") {
        kill_round = value;
      } else if (token == "--kill-worker") {
        if (value < 0) {
          std::cerr << "error: --kill-worker must be >= 0\n";
          return usage();
        }
        kill_worker = value;
      } else {
        checkpoint_round = value;
      }
    } else {
      positional.push_back(token);
    }
  }
  if (processes == 0 && (kill_round >= 0 || kill_worker != 0 ||
                         checkpoint_round >= 0 || transport == "tcp")) {
    std::cerr << "error: --kill-round/--kill-worker/--checkpoint-round/"
                 "--transport need --processes\n";
    return usage();
  }
  if (kill_worker >= processes && kill_round >= 0) {
    std::cerr << "error: --kill-worker " << kill_worker
              << " out of range for " << processes << " processes\n";
    return usage();
  }

  // atof-style parsing would turn garbage into a silent 0.0 and let an
  // out-of-range rate (e.g. 1.5) reach the fault plan unvalidated; parse
  // checked and keep the bus's [0, 1) domain at the boundary instead.
  double loss_rate = 0.15;
  if (!positional.empty()) {
    const std::string& arg = positional.front();
    const auto result =
        std::from_chars(arg.data(), arg.data() + arg.size(), loss_rate);
    if (result.ec != std::errc() || result.ptr != arg.data() + arg.size()) {
      std::cerr << "error: loss_rate '" << arg << "' is not a number\n";
      return usage();
    }
    if (!(loss_rate >= 0.0 && loss_rate < 1.0)) {
      std::cerr << "error: loss_rate " << arg << " outside [0, 1)\n";
      return usage();
    }
  }
  const auto scenario = traces::Scenario::generate({});
  // In-process demo: a Wednesday peak hour. The fleet demo uses a night
  // slot instead — at the peak, losing any one datacenter leaves capacity
  // below load, so the feasibility guard would veto every removal and a
  // --kill-round run could never show a membership rebuild.
  const int slot = processes > 0 ? 52 : 64;
  const auto problem = scenario.problem_at(slot);

  admm::AdmgOptions options;
  options.tolerance = 3e-3;
  options.max_iterations = 800;
  options.record_trace = false;

  std::cout << "Solving one " << (processes > 0 ? "night" : "peak")
            << " slot (M = " << problem.num_front_ends()
            << " front-ends, N = " << problem.num_datacenters()
            << " datacenters)...\n\n";

  const auto mono = admm::solve_admg(problem, options);

  if (processes > 0) {
    net::SupervisorOptions sup;
    sup.distributed.admg = options;
    sup.distributed.degraded = true;  // a real fleet can lose workers
    sup.processes = static_cast<std::size_t>(processes);
    sup.use_tcp = transport == "tcp";
    sup.kill_at_round = static_cast<int>(kill_round);
    sup.kill_worker = static_cast<std::size_t>(kill_worker);
    sup.checkpoint_at_round = static_cast<int>(checkpoint_round);

    std::cout << "Forking " << processes << " worker processes over "
              << transport << " sockets...\n";
    net::Supervisor supervisor(problem, sup);
    net::SupervisedReport fleet;
    try {
      fleet = supervisor.run();
    } catch (const std::runtime_error& error) {
      std::cerr << "error: socket fleet unavailable: " << error.what()
                << "\n";
      return 1;
    }

    // Graceful degradation shrinks lambda to the surviving datacenters, so
    // the element-wise diff against the monolithic solution only exists for
    // a zero-fault fleet.
    const bool same_shape =
        fleet.solution.lambda.rows() == mono.solution.lambda.rows() &&
        fleet.solution.lambda.cols() == mono.solution.lambda.cols();
    const double lambda_diff =
        same_shape ? max_abs_diff(fleet.solution.lambda, mono.solution.lambda)
                   : std::numeric_limits<double>::quiet_NaN();
    TablePrinter table({"Solver", "iterations", "UFC $", "max |lambda diff|"});
    table.add_row(
        "monolithic ADM-G",
        {static_cast<double>(mono.iterations), mono.breakdown.ufc, 0.0}, 3);
    table.add_row("socket fleet (" + std::to_string(processes) + " procs)",
                  {static_cast<double>(fleet.iterations), fleet.breakdown.ufc,
                   lambda_diff},
                  3);
    table.print();
    if (!same_shape)
      std::cout << "(lambda shapes differ after degradation — the fleet "
                   "solved the reduced problem)\n";

    std::cout << "\nFleet outcomes:\n";
    std::cout << "  workers spawned    : " << fleet.workers_spawned << "\n";
    std::cout << "  workers exited     : " << fleet.workers_exited << "\n";
    std::cout << "  workers killed     : " << fleet.workers_killed << "\n";
    std::cout << "  datacenters removed: " << fleet.removed_datacenters.size();
    for (const std::size_t j : fleet.removed_datacenters)
      std::cout << " #" << j;
    std::cout << "\n  bytes on the wire  : " << fleet.network.bytes << "\n";
    if (!fleet.removed_datacenters.empty())
      std::cout << "  (graceful degradation: the coordinator rebuilt "
                   "membership around the killed worker's datacenters and "
                   "re-solved the reduced problem)\n";

    net::SupervisedReport resumed;
    bool resumed_ran = false;
    if (!fleet.checkpoint_image.empty()) {
      std::cout << "\nCrash-restart: resuming a brand-new fleet from the "
                   "UFCR checkpoint captured after iteration "
                << checkpoint_round << "...\n";
      net::SupervisorOptions restart = sup;
      restart.kill_at_round = -1;
      restart.checkpoint_at_round = -1;
      try {
        resumed = net::Supervisor(problem, restart)
                      .run(std::span<const std::byte>(fleet.checkpoint_image));
        resumed_ran = true;
        std::cout << "  resumed fleet finished in " << resumed.iterations
                  << " iterations (vs " << fleet.iterations
                  << " from cold), UFC $" << fixed(resumed.breakdown.ufc, 3)
                  << "\n";
      } catch (const std::runtime_error& error) {
        std::cerr << "  crash-restart failed: " << error.what() << "\n";
      }
    }

    if (!metrics_path.empty()) {
      obs::MetricsRegistry registry;
      obs::record_link_stats(registry, fleet.network);
      // worker_metrics is sorted by worker index, so the merged registry is
      // deterministic run-to-run (modulo timing gauges).
      for (const auto& wm : fleet.worker_metrics) {
        const std::string prefix =
            "worker." + std::to_string(wm.worker_index);
        obs::record_counter_table(registry, wm.tables.counters, prefix);
        obs::record_gauge_table(registry, wm.tables.gauges, prefix);
      }
      obs::RunManifest manifest;
      manifest.set("command", obs::JsonValue("distributed_demo"));
      manifest.set("processes", obs::JsonValue(static_cast<std::int64_t>(
                                    fleet.workers_spawned)));
      manifest.set("transport", obs::JsonValue(transport));
      manifest.set("monolithic", obs::solve_core_json(mono));
      manifest.set("distributed", obs::solve_core_json(fleet));
      manifest.set("network", obs::link_stats_json(fleet.network));
      obs::JsonValue outcomes = obs::JsonValue::object();
      outcomes.set("workers_spawned", obs::JsonValue(static_cast<std::int64_t>(
                                          fleet.workers_spawned)));
      outcomes.set("workers_exited", obs::JsonValue(static_cast<std::int64_t>(
                                         fleet.workers_exited)));
      outcomes.set("workers_killed", obs::JsonValue(static_cast<std::int64_t>(
                                         fleet.workers_killed)));
      obs::JsonValue removed = obs::JsonValue::array();
      for (const std::size_t j : fleet.removed_datacenters)
        removed.push_back(obs::JsonValue(static_cast<std::int64_t>(j)));
      outcomes.set("removed_datacenters", std::move(removed));
      manifest.set("fleet", std::move(outcomes));
      if (resumed_ran)
        manifest.set("resumed", obs::solve_core_json(resumed));
      manifest.set_metrics(registry);
      manifest.write(metrics_path);
      std::cout << "\nRun manifest written to " << metrics_path << "\n";
    }
    return 0;
  }

  net::DistributedOptions dist;
  dist.admg = options;
  dist.faults.random_faults({.loss_rate = loss_rate});
  net::DistributedAdmgRuntime runtime(problem, dist);
  const auto report = runtime.run();

  TablePrinter table({"Solver", "iterations", "UFC $", "max |lambda diff|"});
  table.add_row("monolithic ADM-G",
                {static_cast<double>(mono.iterations), mono.breakdown.ufc, 0.0},
                3);
  table.add_row("message-passing agents",
                {static_cast<double>(report.iterations), report.breakdown.ufc,
                 max_abs_diff(report.solution.lambda, mono.solution.lambda)},
                3);
  table.print();

  const auto& net_stats = report.network;
  std::cout << "\nNetwork totals at " << fixed(100.0 * loss_rate, 0)
            << "% simulated per-attempt loss:\n";
  std::cout << "  messages delivered : " << net_stats.messages << "\n";
  std::cout << "  retransmissions    : " << net_stats.retransmissions << "\n";
  std::cout << "  bytes on the wire  : " << net_stats.bytes << " ("
            << fixed(static_cast<double>(net_stats.bytes) / 1024.0, 1)
            << " KiB)\n";
  std::cout << "  per iteration      : "
            << net_stats.messages / static_cast<std::uint64_t>(report.iterations)
            << " messages\n";

  std::cout << "\nEach front-end only ever saw its own (A_i, L_i., a_i., "
               "varphi_i.); each datacenter only its own (alpha, beta, S_j, "
               "p_j, C_j, mu_max) plus the messages above —\nthe "
               "decomposition of paper Fig. 2.\n";

  if (!metrics_path.empty()) {
    obs::MetricsRegistry registry;
    obs::record_link_stats(registry, net_stats);
    obs::RunManifest manifest;
    manifest.set("command", obs::JsonValue("distributed_demo"));
    manifest.set("loss_rate", obs::JsonValue(loss_rate));
    manifest.set("monolithic", obs::solve_core_json(mono));
    manifest.set("distributed", obs::solve_core_json(report));
    manifest.set("network", obs::link_stats_json(net_stats));
    manifest.set_metrics(registry);
    manifest.write(metrics_path);
    std::cout << "\nRun manifest written to " << metrics_path << "\n";
  }
  return 0;
}
