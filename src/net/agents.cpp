#include "net/agents.hpp"

#include <algorithm>
#include <cmath>

#include "admm/engine.hpp"
#include "util/contract.hpp"
#include "util/wire.hpp"

namespace ufc::net {

namespace {

/// True iff `value` is a whole number in [lo, hi]; false for NaN.
bool whole_in(double value, double lo, double hi) {
  return value >= lo && value <= hi && std::trunc(value) == value;
}

}  // namespace

// --------------------------------------------------------------------------
// FrontEndAgent

FrontEndAgent::FrontEndAgent(FrontEndLocalConfig config)
    : config_(std::move(config)) {
  UFC_EXPECTS(config_.utility != nullptr);
  UFC_EXPECTS(!config_.latency_row_s.empty());
  n_ = config_.latency_row_s.size();
  if (config_.datacenter_ids.empty()) {
    config_.datacenter_ids.reserve(n_);
    for (std::size_t j = 0; j < n_; ++j)
      config_.datacenter_ids.push_back(datacenter_id(j));
  }
  UFC_EXPECTS(config_.datacenter_ids.size() == n_);
  lambda_ = Vec(n_, 0.0);
  lambda_tilde_ = Vec(n_, 0.0);
  a_ = Vec(n_, 0.0);
  varphi_ = Vec(n_, 0.0);
  a_tilde_cache_ = Vec(n_, 0.0);
  last_assignment_round_.assign(n_, -1);
}

std::size_t FrontEndAgent::position_of(NodeId source) const {
  const auto& ids = config_.datacenter_ids;
  const auto it = std::find(ids.begin(), ids.end(), source);
  UFC_EXPECTS(it != ids.end());
  return static_cast<std::size_t>(it - ids.begin());
}

admm::LambdaBlockWork FrontEndAgent::send_proposals(Transport& bus,
                                                    int iteration) {
  UFC_EXPECTS(iteration >= 0);
  const admm::LambdaBlockWork work = admm::solve_lambda_block_into(
      {.arrival = config_.arrival,
       .latency_row = config_.latency_row_s.span(),
       .a_row = a_.span(),
       .varphi_row = varphi_.span(),
       .rho = config_.protocol.rule.rho,
       .latency_weight = config_.latency_weight,
       .utility = config_.utility.get()},
      lambda_.span(), lambda_tilde_.span(), blocks_);

  for (std::size_t j = 0; j < n_; ++j) {
    Message msg;
    msg.source = id();
    msg.destination = config_.datacenter_ids[j];
    msg.type = MessageType::RoutingProposal;
    msg.iteration = iteration;
    msg.payload = {lambda_tilde_[j], varphi_[j]};
    bus.send(std::move(msg));
  }
  return work;
}

void FrontEndAgent::process_assignments(Transport& bus, int iteration) {
  const bool stale_ok = config_.protocol.allow_stale;
  std::size_t received = 0;
  for (auto& msg : bus.drain(id())) {
    UFC_EXPECTS(msg.type == MessageType::RoutingAssignment);
    UFC_EXPECTS(msg.payload.size() == 1);
    const std::size_t j = position_of(msg.source);
    if (stale_ok) {
      // Delayed deliveries can put several iterations of one link into a
      // single drain; keep only the newest assignment per datacenter.
      if (msg.iteration > last_assignment_round_[j]) {
        last_assignment_round_[j] = msg.iteration;
        a_tilde_cache_[j] = msg.payload[0];
      }
    } else {
      UFC_EXPECTS(msg.iteration == iteration);
      last_assignment_round_[j] = msg.iteration;
      a_tilde_cache_[j] = msg.payload[0];
      ++received;
    }
  }
  if (!stale_ok) UFC_EXPECTS(received == n_);
  for (std::size_t j = 0; j < n_; ++j)
    if (last_assignment_round_[j] < iteration) ++stale_assignments_;

  // Shared GBS correction helpers (admm/engine.cpp) — the same arithmetic
  // AdmgSolver runs, applied to this front-end's row.
  const admm::StepRule& rule = config_.protocol.rule;
  admm::correct_varphi_block(varphi_.span(), a_tilde_cache_.span(),
                             lambda_tilde_.span(), rule);
  admm::correct_a_block(a_.span(), a_tilde_cache_.span(), rule);
  lambda_ = lambda_tilde_;

  last_copy_residual_ = 0.0;
  for (std::size_t j = 0; j < n_; ++j)
    last_copy_residual_ =
        std::max(last_copy_residual_, std::abs(a_[j] - lambda_[j]));

  Message report;
  report.source = id();
  report.destination = kCoordinatorId;
  report.type = MessageType::ConvergenceReport;
  report.iteration = iteration;
  report.payload = {last_copy_residual_};
  bus.send(std::move(report));
}

std::int32_t FrontEndAgent::oldest_input_round() const {
  return *std::min_element(last_assignment_round_.begin(),
                           last_assignment_round_.end());
}

// Serializer into a caller-owned buffer: any `out` state is appendable, so
// there is no precondition to guard — restore_state carries the format
// contract for the pair.
// ufc-lint: allow(expects-reach)
void FrontEndAgent::append_state(std::vector<std::byte>& out) const {
  wire::append(out, static_cast<std::uint64_t>(n_));
  wire::append_f64s(out, lambda_.span());
  wire::append_f64s(out, lambda_tilde_.span());
  wire::append_f64s(out, a_.span());
  wire::append_f64s(out, varphi_.span());
  wire::append_f64s(out, a_tilde_cache_.span());
  for (std::int32_t r : last_assignment_round_) wire::append(out, r);
  wire::append(out, last_copy_residual_);
  wire::append(out, stale_assignments_);
}

void FrontEndAgent::restore_state(std::span<const std::byte> bytes,
                                  std::size_t& offset) {
  UFC_EXPECTS(wire::read<std::uint64_t>(bytes, offset) == n_);
  wire::read_f64s(bytes, offset, lambda_.span());
  wire::read_f64s(bytes, offset, lambda_tilde_.span());
  wire::read_f64s(bytes, offset, a_.span());
  wire::read_f64s(bytes, offset, varphi_.span());
  wire::read_f64s(bytes, offset, a_tilde_cache_.span());
  for (auto& r : last_assignment_round_)
    r = wire::read<std::int32_t>(bytes, offset);
  last_copy_residual_ = wire::read<double>(bytes, offset);
  stale_assignments_ = wire::read<std::uint64_t>(bytes, offset);
}

void FrontEndAgent::load_iterate(std::span<const double> lambda,
                                 std::span<const double> a,
                                 std::span<const double> varphi) {
  UFC_EXPECTS(lambda.size() == n_);
  UFC_EXPECTS(a.size() == n_);
  UFC_EXPECTS(varphi.size() == n_);
  lambda_.assign(lambda);
  lambda_tilde_.assign(lambda);
  a_.assign(a);
  varphi_.assign(varphi);
  a_tilde_cache_.assign(a);
  std::fill(last_assignment_round_.begin(), last_assignment_round_.end(), -1);
}

// --------------------------------------------------------------------------
// DatacenterAgent

DatacenterAgent::DatacenterAgent(DatacenterLocalConfig config)
    : config_(std::move(config)) {
  UFC_EXPECTS(config_.num_front_ends > 0);
  UFC_EXPECTS(config_.emission_cost != nullptr);
  UFC_EXPECTS(!(config_.protocol.rule.pin_mu && config_.protocol.rule.pin_nu));
  config_.data.emission_cost = config_.emission_cost.get();
  a_ = Vec(config_.num_front_ends, 0.0);
  a_tilde_ = Vec(config_.num_front_ends, 0.0);
  lambda_tilde_cache_ = Vec(config_.num_front_ends, 0.0);
  varphi_cache_ = Vec(config_.num_front_ends, 0.0);
  last_proposal_round_.assign(config_.num_front_ends, -1);
}

DatacenterRound DatacenterAgent::process_proposals(Transport& bus,
                                                   int iteration) {
  const std::size_t m = config_.num_front_ends;
  const bool stale_ok = config_.protocol.allow_stale;
  std::size_t received = 0;
  for (auto& msg : bus.drain(id())) {
    UFC_EXPECTS(msg.type == MessageType::RoutingProposal);
    UFC_EXPECTS(msg.payload.size() == 2);
    const std::size_t i = front_end_index(msg.source);
    UFC_EXPECTS(i < m);
    if (stale_ok) {
      if (msg.iteration > last_proposal_round_[i]) {
        last_proposal_round_[i] = msg.iteration;
        lambda_tilde_cache_[i] = msg.payload[0];
        varphi_cache_[i] = msg.payload[1];
      }
    } else {
      UFC_EXPECTS(msg.iteration == iteration);
      last_proposal_round_[i] = msg.iteration;
      lambda_tilde_cache_[i] = msg.payload[0];
      varphi_cache_[i] = msg.payload[1];
      ++received;
    }
  }
  if (!stale_ok) UFC_EXPECTS(received == m);
  for (std::size_t i = 0; i < m; ++i)
    if (last_proposal_round_[i] < iteration) ++stale_proposals_;

  // Procedures 2-5: the mu, nu and a blocks and the phi prediction — the
  // arithmetic AdmgSolver's datacenter pass runs on its column j.
  const admm::StepRule& rule = config_.protocol.rule;
  const admm::DatacenterPrediction predicted = admm::predict_datacenter(
      config_.data, rule, a_.span(), nu_, phi_, lambda_tilde_cache_.span(),
      varphi_cache_.span(), a_tilde_.span(), blocks_);

  // Reply the assignments (procedure 4's second half).
  for (std::size_t i = 0; i < m; ++i) {
    Message msg;
    msg.source = id();
    msg.destination = front_end_id(i);
    msg.type = MessageType::RoutingAssignment;
    msg.iteration = iteration;
    msg.payload = {a_tilde_[i]};
    bus.send(std::move(msg));
  }

  // The correction, backward order. varphi is the front-ends' dual: each
  // FrontEndAgent corrects its own row.
  const double change =
      admm::correct_datacenter(config_.data, rule, predicted, a_tilde_.span(),
                               a_.span(), mu_, nu_, phi_);
  last_balance_residual_ = std::abs(
      config_.data.alpha_mw + config_.data.beta_mw * sum(a_) - mu_ - nu_);

  Message report;
  report.source = id();
  report.destination = kCoordinatorId;
  report.type = MessageType::ConvergenceReport;
  report.iteration = iteration;
  report.payload = {last_balance_residual_};
  bus.send(std::move(report));
  return {.change = change, .a_passes = predicted.a_passes};
}

std::int32_t DatacenterAgent::oldest_input_round() const {
  return *std::min_element(last_proposal_round_.begin(),
                           last_proposal_round_.end());
}

// Serializer into a caller-owned buffer: no precondition to guard (see
// FrontEndAgent::append_state).
// ufc-lint: allow(expects-reach)
void DatacenterAgent::append_state(std::vector<std::byte>& out) const {
  wire::append(out, static_cast<std::uint64_t>(config_.num_front_ends));
  wire::append_f64s(out, a_.span());
  wire::append(out, mu_);
  wire::append(out, nu_);
  wire::append(out, phi_);
  wire::append_f64s(out, lambda_tilde_cache_.span());
  wire::append_f64s(out, varphi_cache_.span());
  for (std::int32_t r : last_proposal_round_) wire::append(out, r);
  wire::append(out, last_balance_residual_);
  wire::append(out, stale_proposals_);
}

void DatacenterAgent::restore_state(std::span<const std::byte> bytes,
                                    std::size_t& offset) {
  UFC_EXPECTS(wire::read<std::uint64_t>(bytes, offset) ==
              config_.num_front_ends);
  wire::read_f64s(bytes, offset, a_.span());
  mu_ = wire::read<double>(bytes, offset);
  nu_ = wire::read<double>(bytes, offset);
  phi_ = wire::read<double>(bytes, offset);
  wire::read_f64s(bytes, offset, lambda_tilde_cache_.span());
  wire::read_f64s(bytes, offset, varphi_cache_.span());
  for (auto& r : last_proposal_round_)
    r = wire::read<std::int32_t>(bytes, offset);
  last_balance_residual_ = wire::read<double>(bytes, offset);
  stale_proposals_ = wire::read<std::uint64_t>(bytes, offset);
}

Message DatacenterAgent::make_state_sync(int iteration) const {
  UFC_EXPECTS(iteration >= 0);
  const std::size_t m = config_.num_front_ends;
  Message msg;
  msg.source = id();
  msg.destination = kCoordinatorId;
  msg.type = MessageType::StateSync;
  msg.iteration = iteration;
  msg.payload.reserve(6 + 3 * m);
  msg.payload = {mu_,
                 nu_,
                 phi_,
                 last_balance_residual_,
                 static_cast<double>(oldest_input_round()),
                 static_cast<double>(stale_proposals_)};
  msg.payload.insert(msg.payload.end(), a_.begin(), a_.end());
  msg.payload.insert(msg.payload.end(), lambda_tilde_cache_.begin(),
                     lambda_tilde_cache_.end());
  msg.payload.insert(msg.payload.end(), varphi_cache_.begin(),
                     varphi_cache_.end());
  return msg;
}

double DatacenterAgent::sync_remote(const Message& message) {
  const std::size_t m = config_.num_front_ends;
  UFC_EXPECTS(message.type == MessageType::StateSync);
  UFC_EXPECTS(message.source == id());
  UFC_EXPECTS(message.payload.size() == 6 + 3 * m);
  // The remote tracks per-front-end input ages; the shadow only needs the
  // aggregate the coordinator reads (oldest round for the convergence bound,
  // stale count for the report). Both arrive as doubles from another
  // process: an out-of-range cast is undefined behaviour, so check them
  // before adopting anything.
  const double oldest = message.payload[4];
  const double stale = message.payload[5];
  UFC_EXPECTS(whole_in(oldest, -1.0, static_cast<double>(message.iteration)));
  UFC_EXPECTS(whole_in(stale, 0.0, 0x1p53));
  // The largest |new - old| of a, mu and nu, folded like max_abs_diff.
  double change = 0.0;
  const auto adopt = [&change](double& value, double incoming) {
    change = std::max(change, std::abs(incoming - value));
    value = incoming;
  };
  adopt(mu_, message.payload[0]);
  adopt(nu_, message.payload[1]);
  phi_ = message.payload[2];
  last_balance_residual_ = message.payload[3];
  std::fill(last_proposal_round_.begin(), last_proposal_round_.end(),
            static_cast<std::int32_t>(oldest));
  stale_proposals_ = static_cast<std::uint64_t>(stale);
  for (std::size_t i = 0; i < m; ++i) {
    adopt(a_[i], message.payload[6 + i]);
    lambda_tilde_cache_[i] = message.payload[6 + m + i];
    varphi_cache_[i] = message.payload[6 + 2 * m + i];
  }
  return change;
}

void DatacenterAgent::load_iterate(std::span<const double> a_col,
                                   std::span<const double> varphi_col,
                                   double mu, double nu, double phi) {
  UFC_EXPECTS(a_col.size() == config_.num_front_ends);
  UFC_EXPECTS(varphi_col.size() == config_.num_front_ends);
  a_.assign(a_col);
  mu_ = mu;
  nu_ = nu;
  phi_ = phi;
  // Seed the proposal caches with the near-converged approximation
  // lambda~ ~= a so a front-end that stays silent after a rebuild still
  // leaves this datacenter with a sane stale input.
  lambda_tilde_cache_.assign(a_col);
  varphi_cache_.assign(varphi_col);
  std::fill(last_proposal_round_.begin(), last_proposal_round_.end(), -1);
}

}  // namespace ufc::net
