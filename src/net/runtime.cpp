#include "net/runtime.hpp"

#include <algorithm>
#include <cmath>

#include "net/socket_bus.hpp"
#include "util/contract.hpp"
#include "util/logging.hpp"
#include "util/wire.hpp"

namespace ufc::net {

namespace {

// Checkpoint framing, mirroring AdmgSolver's (docs/ROBUSTNESS.md).
constexpr std::uint32_t kRuntimeCheckpointMagic = 0x55464352;  // "UFCR"
constexpr std::uint32_t kRuntimeCheckpointVersion = 1;

void remove_datacenter_from_problem(UfcProblem& problem, std::size_t pos) {
  const std::size_t m = problem.num_front_ends();
  const std::size_t n = problem.num_datacenters();
  problem.datacenters.erase(problem.datacenters.begin() +
                            static_cast<std::ptrdiff_t>(pos));
  Mat reduced(m, n - 1);
  for (std::size_t i = 0; i < m; ++i) {
    const auto row = problem.latency_s.row_span(i);
    auto out = reduced.row_span(i);
    std::size_t c = 0;
    for (std::size_t j = 0; j < n; ++j)
      if (j != pos) out[c++] = row[j];
  }
  problem.latency_s = std::move(reduced);
}

}  // namespace

DistributedAdmgRuntime::DistributedAdmgRuntime(const UfcProblem& problem,
                                               DistributedOptions options)
    : original_(problem),
      options_(std::move(options)),
      bus_(BusConfig{.seed = options_.loss_seed,
                     .max_attempts = options_.max_attempts,
                     .faults = options_.faults}) {
  original_.validate();
  UFC_EXPECTS(options_.dead_after_rounds >= 1);
  // Strict lockstep assumes every message arrives within its round; only a
  // delivery-preserving plan on the unbounded-retransmit transport promises
  // that. Every other fault environment needs the degraded protocol.
  UFC_EXPECTS(options_.degraded || (options_.faults.delivery_preserving() &&
                                    options_.max_attempts == 0));
  transport_ = &bus_;
  // Eventual delivery (loss with retries, bounded delay) keeps input ages
  // bounded; the gate admits exactly that envelope.
  const auto& rf = options_.faults.random();
  stale_bound_ = 1 + (rf.delay_rate > 0.0 ? rf.max_delay_rounds : 0);

  // The workload normalization, the option checks and step rule, and the
  // residual scales come from the functions AdmgSolver calls, so the two
  // drivers accept the same options and produce bit-identical iterates.
  sigma_ = admm::workload_scale_for(original_, options_.admg);
  problem_ = admm::scale_workload_units(original_, sigma_);
  protocol_ = {.rule = admm::step_rule(problem_, options_.admg),
               .allow_stale = options_.degraded};
  scales_ = admm::residual_scales(problem_);

  active_dcs_.resize(problem_.num_datacenters());
  for (std::size_t j = 0; j < active_dcs_.size(); ++j) active_dcs_[j] = j;

  build_agents();
}

DistributedAdmgRuntime::DistributedAdmgRuntime(const UfcProblem& problem,
                                               DistributedOptions options,
                                               SocketBus& hub,
                                               int round_deadline_ms)
    : DistributedAdmgRuntime(problem, std::move(options)) {
  UFC_EXPECTS(round_deadline_ms >= 0);
  // The fleet rides the real network: scripted/random bus faults would be
  // simulated on top of genuine ones, and remote datacenter crashes arrive
  // as EOFs, not FaultPlan windows.
  UFC_EXPECTS(options_.faults.delivery_preserving());
  transport_ = &hub;
  socket_ = &hub;
  round_deadline_ms_ = round_deadline_ms;
}

void DistributedAdmgRuntime::build_agents() {
  const std::size_t m = problem_.num_front_ends();
  const std::size_t n = problem_.num_datacenters();
  UFC_EXPECTS(active_dcs_.size() == n);

  std::vector<NodeId> dc_ids;
  dc_ids.reserve(n);
  for (std::size_t original : active_dcs_)
    dc_ids.push_back(datacenter_id(original));

  front_ends_.clear();
  front_ends_.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    FrontEndLocalConfig cfg;
    cfg.index = i;
    cfg.arrival = problem_.arrivals[i];
    cfg.latency_row_s = problem_.latency_s.row(i);
    cfg.latency_weight = problem_.latency_weight;
    cfg.utility = problem_.utility;
    cfg.datacenter_ids = dc_ids;
    cfg.protocol = protocol_;
    front_ends_.emplace_back(std::move(cfg));
  }

  objective_lambda_ = Mat(m, n);
  objective_mu_ = Vec(n);

  datacenters_.clear();
  datacenters_.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    datacenters_.emplace_back(DatacenterLocalConfig{
        .index = active_dcs_[j],  // keeps the original bus id after removals
        .num_front_ends = m,
        .data = admm::datacenter_data(problem_, j),
        .emission_cost = problem_.datacenters[j].emission_cost,
        .protocol = protocol_});
  }
}

void DistributedAdmgRuntime::absorb_coordinator_message(const Message& message,
                                                        int iteration) {
  // Receipt of any report this round proves the sender was recently alive.
  if (message.type == MessageType::StateSync) {
    // Only fleet workers sync their datacenters' state.
    UFC_EXPECTS(socket_ != nullptr);
    for (auto& dc : datacenters_) {
      if (dc.id() != message.source) continue;
      change_ = std::max(change_, dc.sync_remote(message));
      last_seen_[message.source] = iteration;
      auto& synced = remote_synced_[message.source];
      synced = std::max(synced, static_cast<int>(message.iteration));
      return;
    }
    return;  // A straggler from a datacenter already removed: ignore.
  }
  UFC_EXPECTS(message.type == MessageType::ConvergenceReport);
  last_seen_[message.source] = iteration;
}

void DistributedAdmgRuntime::pump_remote(int iteration) {
  const IoDeadline deadline(round_deadline_ms_);
  const auto outstanding = [&]() {
    std::size_t count = 0;
    for (const auto& dc : datacenters_) {
      const NodeId node = dc.id();
      if (eof_nodes_.count(node) > 0) continue;  // Dead stream: don't wait.
      const auto it = remote_synced_.find(node);
      if (it == remote_synced_.end() || it->second < iteration) ++count;
    }
    return count;
  };
  while (outstanding() > 0) {
    socket_->pump(deadline.remaining_ms());
    for (auto& msg : socket_->drain(kCoordinatorId))
      absorb_coordinator_message(msg, iteration);
    for (NodeId node : socket_->take_newly_disconnected())
      eof_nodes_.insert(node);
    if (deadline.expired()) break;
  }
}

void DistributedAdmgRuntime::step(int iteration) {
  transport_->begin_round(iteration);
  // The round's change is the largest move any datacenter reports: its own
  // correction's, or (in a fleet) its shadow's StateSync adoption. The
  // agents' block work counts are summed into the round's profile.
  change_ = 0.0;
  profile_last_ = admm::PhaseProfile{};
  const auto& faults = bus_.config().faults;
  for (auto& fe : front_ends_) {
    if (faults.node_down(fe.id(), iteration)) continue;
    const admm::LambdaBlockWork work =
        fe.send_proposals(*transport_, iteration);
    profile_last_.lambda_probes += static_cast<std::uint64_t>(work.probes);
    profile_last_.lambda_projections +=
        static_cast<std::uint64_t>(work.projections);
  }
  if (socket_ == nullptr) {
    for (auto& dc : datacenters_) {
      if (faults.node_down(dc.id(), iteration)) continue;
      const DatacenterRound round = dc.process_proposals(*transport_, iteration);
      change_ = std::max(change_, round.change);
      profile_last_.a_passes += static_cast<std::uint64_t>(round.a_passes);
    }
  } else {
    // The datacenters run concurrently in their worker processes; wait
    // (deadline-bounded) for their assignments + StateSync before the
    // front-ends consume assignments.
    pump_remote(iteration);
  }
  for (auto& fe : front_ends_)
    if (!faults.node_down(fe.id(), iteration))
      fe.process_assignments(*transport_, iteration);
  // The coordinator consumes the residual reports (values are also exposed
  // on the agents for tests) and keeps its health table.
  for (auto& msg : transport_->drain(kCoordinatorId))
    absorb_coordinator_message(msg, iteration);
  next_round_ = iteration + 1;
  topology_changed_ = options_.degraded && remove_dead(iteration);
  // A removal compacts the iterate onto the reduced problem, so the moves
  // above address the old topology; the engine skips this round's
  // convergence test anyway.
  if (topology_changed_) change_ = 0.0;
}

bool DistributedAdmgRuntime::remove_dead(int round) {
  bool removed = false;
  for (;;) {
    const std::size_t n = datacenters_.size();
    std::size_t dead = n;
    for (std::size_t j = 0; j < n; ++j) {
      const NodeId node = datacenters_[j].id();
      const auto it = last_seen_.find(node);
      const int last = it == last_seen_.end() ? -1 : it->second;
      // A node whose stream reported EOF/reset is known-dead at the OS
      // level; one silent round confirms it. Without that signal only
      // sustained silence is proof.
      const int threshold =
          eof_nodes_.count(node) > 0 ? 1 : options_.dead_after_rounds;
      if (round - last >= threshold) {
        dead = j;
        break;
      }
    }
    if (dead == n) break;
    if (!remove_datacenter(dead)) break;
    removed = true;
  }
  return removed;
}

bool DistributedAdmgRuntime::remove_datacenter(std::size_t pos) {
  const std::size_t m = front_ends_.size();
  const std::size_t n = datacenters_.size();
  UFC_EXPECTS(pos < n);
  const std::size_t original_index = active_dcs_[pos];
  if (n <= 1) {
    log::warn("cannot remove datacenter ", original_index,
              ": it is the last one standing");
    return false;
  }
  double remaining_capacity = 0.0;
  for (std::size_t j = 0; j < n; ++j)
    if (j != pos) remaining_capacity += original_.datacenters[j].servers;
  if (original_.total_arrivals() > remaining_capacity) {
    log::warn("cannot remove datacenter ", original_index,
              ": reduced problem infeasible (capacity ", remaining_capacity,
              " servers < load ", original_.total_arrivals(), ")");
    return false;
  }
  log::warn("removing datacenter ", original_index, "; warm-restarting on ",
            n - 1, " datacenters");

  // Capture the surviving iterate (normalized units), compacted past `pos`.
  struct FeState {
    std::vector<double> lambda, a, varphi;
  };
  std::vector<FeState> fe_state(m);
  for (std::size_t i = 0; i < m; ++i) {
    auto& st = fe_state[i];
    const Vec& lambda = front_ends_[i].lambda();
    const Vec& a = front_ends_[i].a_mirror();
    const Vec& varphi = front_ends_[i].varphi();
    for (std::size_t j = 0; j < n; ++j) {
      if (j == pos) continue;
      st.lambda.push_back(lambda[j]);
      st.a.push_back(a[j]);
      st.varphi.push_back(varphi[j]);
    }
  }
  struct DcState {
    Vec a_col, varphi_col;
    double mu = 0.0, nu = 0.0, phi = 0.0;
  };
  std::vector<DcState> dc_state;
  dc_state.reserve(n - 1);
  for (std::size_t j = 0; j < n; ++j) {
    if (j == pos) continue;
    DcState st;
    st.a_col = datacenters_[j].a_col();
    st.varphi_col = Vec(m, 0.0);
    for (std::size_t i = 0; i < m; ++i)
      st.varphi_col[i] = front_ends_[i].varphi()[j];
    st.mu = datacenters_[j].mu();
    st.nu = datacenters_[j].nu();
    st.phi = datacenters_[j].phi();
    dc_state.push_back(std::move(st));
  }

  remove_datacenter_from_problem(original_, pos);
  remove_datacenter_from_problem(problem_, pos);
  active_dcs_.erase(active_dcs_.begin() + static_cast<std::ptrdiff_t>(pos));
  removed_dcs_.push_back(original_index);
  last_seen_.erase(datacenter_id(original_index));
  eof_nodes_.erase(datacenter_id(original_index));
  remote_synced_.erase(datacenter_id(original_index));

  build_agents();
  for (std::size_t i = 0; i < m; ++i)
    front_ends_[i].load_iterate(fe_state[i].lambda, fe_state[i].a,
                                fe_state[i].varphi);
  for (std::size_t j = 0; j + 1 < n; ++j)
    datacenters_[j].load_iterate(dc_state[j].a_col.span(),
                                 dc_state[j].varphi_col.span(), dc_state[j].mu,
                                 dc_state[j].nu, dc_state[j].phi);

  // In-flight traffic addressed the old topology; flush it. The degraded
  // protocol treats the flushed messages as lost.
  transport_->clear_queues();
  scales_ = admm::residual_scales(problem_);
  return true;
}

Mat DistributedAdmgRuntime::gather_lambda() const {
  Mat out(front_ends_.size(), datacenters_.size());
  for (std::size_t i = 0; i < front_ends_.size(); ++i)
    out.set_row(i, front_ends_[i].lambda());
  return out;
}

Vec DistributedAdmgRuntime::gather_mu() const {
  Vec out(datacenters_.size());
  for (std::size_t j = 0; j < datacenters_.size(); ++j)
    out[j] = datacenters_[j].mu();
  return out;
}

Vec DistributedAdmgRuntime::nu() const {
  Vec out(datacenters_.size());
  for (std::size_t j = 0; j < datacenters_.size(); ++j)
    out[j] = datacenters_[j].nu();
  return out;
}

Mat DistributedAdmgRuntime::a() const {
  Mat out(front_ends_.size(), datacenters_.size());
  for (std::size_t j = 0; j < datacenters_.size(); ++j)
    out.set_col(j, datacenters_[j].a_col());
  return out;
}

double DistributedAdmgRuntime::balance_residual() const {
  double r = 0.0;
  for (const auto& dc : datacenters_)
    r = std::max(r, dc.last_balance_residual());
  return r;
}

double DistributedAdmgRuntime::copy_residual() const {
  double r = 0.0;
  for (const auto& fe : front_ends_) r = std::max(r, fe.last_copy_residual());
  return r;
}

bool DistributedAdmgRuntime::iterate_finite() const {
  for (const auto& fe : front_ends_) {
    if (!all_finite(fe.lambda().span()) || !all_finite(fe.a_mirror().span()) ||
        !all_finite(fe.varphi().span()))
      return false;
  }
  for (const auto& dc : datacenters_) {
    if (!all_finite(dc.a_col().span()) || !std::isfinite(dc.mu()) ||
        !std::isfinite(dc.nu()) || !std::isfinite(dc.phi()))
      return false;
  }
  return true;
}

std::uint64_t DistributedAdmgRuntime::stale_inputs() const {
  std::uint64_t total = 0;
  for (const auto& fe : front_ends_) total += fe.stale_assignments();
  for (const auto& dc : datacenters_) total += dc.stale_proposals();
  return total;
}

// Under eventual delivery (loss, bounded delay) input ages stay within
// stale_bound_, so persistent random faults cannot starve convergence; a
// silent (crashed or partitioned) peer grows the age without bound and
// keeps blocking it until the health tracker removes the node or the
// watchdog trips.
bool DistributedAdmgRuntime::inputs_fresh(int iteration) const {
  UFC_EXPECTS(iteration >= 0);
  std::int32_t oldest = static_cast<std::int32_t>(iteration);
  for (const auto& fe : front_ends_)
    oldest = std::min(oldest, fe.oldest_input_round());
  for (const auto& dc : datacenters_)
    oldest = std::min(oldest, dc.oldest_input_round());
  return iteration - oldest <= stale_bound_;
}

double DistributedAdmgRuntime::objective() const {
  // The values gather_lambda() and gather_mu() would return, in buffers
  // that outlive the call: bitwise the same objective.
  for (std::size_t i = 0; i < front_ends_.size(); ++i)
    objective_lambda_.set_row(i, front_ends_[i].lambda().span());
  for (std::size_t j = 0; j < datacenters_.size(); ++j)
    objective_mu_[j] = datacenters_[j].mu();
  return ufc_objective(problem_, objective_lambda_, objective_mu_);
}

DistributedReport DistributedAdmgRuntime::run() {
  admm::AdmgEngine engine(options_.admg);
  DistributedReport report;
  // The engine owns the iteration skeleton (convergence gate, watchdog,
  // trace, centralized fallback); this runtime contributes only message
  // exchange and degraded-mode membership. Resumability: starting the
  // engine at next_round_ continues a checkpointed run.
  static_cast<admm::SolveCore&>(report) = engine.solve(*this, next_round_);
  report.stale_inputs = stale_inputs();
  report.active_datacenters = active_dcs_;
  report.removed_datacenters = removed_dcs_;
  report.network = transport_->total();
  return report;
}

std::vector<std::byte> DistributedAdmgRuntime::checkpoint() const {
  std::vector<std::byte> out;
  wire::append(out, kRuntimeCheckpointMagic);
  wire::append(out, kRuntimeCheckpointVersion);
  wire::append(out, static_cast<std::uint64_t>(front_ends_.size()));
  wire::append(out, static_cast<std::uint64_t>(datacenters_.size()));
  wire::append(out, sigma_);
  wire::append(out, static_cast<std::int32_t>(next_round_));
  for (std::size_t idx : active_dcs_)
    wire::append(out, static_cast<std::uint64_t>(idx));
  wire::append(out, static_cast<std::uint64_t>(removed_dcs_.size()));
  for (std::size_t idx : removed_dcs_)
    wire::append(out, static_cast<std::uint64_t>(idx));
  wire::append(out, static_cast<std::uint64_t>(last_seen_.size()));
  for (const auto& [node, seen] : last_seen_) {
    wire::append(out, node);
    wire::append(out, static_cast<std::int32_t>(seen));
  }
  for (const auto& fe : front_ends_) fe.append_state(out);
  for (const auto& dc : datacenters_) dc.append_state(out);
  return out;
}

void DistributedAdmgRuntime::restore(std::span<const std::byte> bytes) {
  std::size_t offset = 0;
  UFC_EXPECTS(wire::read<std::uint32_t>(bytes, offset) ==
              kRuntimeCheckpointMagic);
  UFC_EXPECTS(wire::read<std::uint32_t>(bytes, offset) ==
              kRuntimeCheckpointVersion);
  UFC_EXPECTS(wire::read<std::uint64_t>(bytes, offset) == front_ends_.size());
  const auto n =
      static_cast<std::size_t>(wire::read<std::uint64_t>(bytes, offset));
  UFC_EXPECTS(n >= 1 && n <= datacenters_.size());
  // Iterates are stored in normalized units; a different sigma would
  // silently reinterpret them.
  UFC_EXPECTS(wire::read<double>(bytes, offset) == sigma_);
  const int next_round = wire::read<std::int32_t>(bytes, offset);
  UFC_EXPECTS(next_round >= 0);
  std::vector<std::size_t> active(n);
  for (auto& idx : active)
    idx = static_cast<std::size_t>(wire::read<std::uint64_t>(bytes, offset));
  const auto removed_count =
      static_cast<std::size_t>(wire::read<std::uint64_t>(bytes, offset));
  std::vector<std::size_t> removed(removed_count);
  for (auto& idx : removed)
    idx = static_cast<std::size_t>(wire::read<std::uint64_t>(bytes, offset));
  const auto seen_count =
      static_cast<std::size_t>(wire::read<std::uint64_t>(bytes, offset));
  std::map<NodeId, int> seen;
  for (std::size_t s = 0; s < seen_count; ++s) {
    const auto node = wire::read<NodeId>(bytes, offset);
    seen[node] = wire::read<std::int32_t>(bytes, offset);
  }

  // Replay the membership reduction so agent shapes match the image.
  for (std::size_t pos = 0; pos < active_dcs_.size();) {
    if (std::find(active.begin(), active.end(), active_dcs_[pos]) ==
        active.end()) {
      UFC_EXPECTS(remove_datacenter(pos));
    } else {
      ++pos;
    }
  }
  UFC_EXPECTS(active_dcs_ == active);

  removed_dcs_ = std::move(removed);
  last_seen_ = std::move(seen);
  next_round_ = next_round;
  for (auto& fe : front_ends_) fe.restore_state(bytes, offset);
  for (auto& dc : datacenters_) dc.restore_state(bytes, offset);
  UFC_EXPECTS(offset == bytes.size());
  // Whatever was in flight when the image was taken is gone; anything
  // queued locally belongs to a different timeline.
  transport_->clear_queues();
}

}  // namespace ufc::net
