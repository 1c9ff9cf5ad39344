#include "ctrl/scheduler.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/contract.hpp"

namespace ufc::ctrl {

MultiTenantScheduler::MultiTenantScheduler(SchedulerOptions options)
    : options_(std::move(options)),
      pool_(util::resolve_thread_count(options_.threads)) {
  UFC_EXPECTS(options_.iteration_pool_per_tick >= 1);
  UFC_EXPECTS(options_.quantum >= 1);
  UFC_EXPECTS(options_.threads >= 0);
}

void MultiTenantScheduler::add_tenant(std::string name,
                                      std::unique_ptr<TickSource> source) {
  UFC_EXPECTS(!name.empty());
  UFC_EXPECTS(source != nullptr);
  for (const Tenant& existing : tenants_) UFC_EXPECTS(existing.name != name);
  admm::AdmgOptions admg = options_.admg;
  admg.threads = 1;  // Parallelism is across tenants, never inside a solve.
  Tenant tenant{std::move(name),
                std::move(source),
                nullptr,
                obs::Histogram(obs::default_iteration_boundaries())};
  tenant.solver =
      std::make_unique<admm::AdmgSolver>(tenant.source->base_problem(), admg);
  tenants_.push_back(std::move(tenant));
}

const std::string& MultiTenantScheduler::tenant_name(std::size_t t) const {
  UFC_EXPECTS(t < tenants_.size());
  return tenants_[t].name;
}

const admm::AdmgSolver& MultiTenantScheduler::tenant_solver(
    std::size_t t) const {
  UFC_EXPECTS(t < tenants_.size());
  return *tenants_[t].solver;
}

bool MultiTenantScheduler::run_tick() {
  UFC_EXPECTS(!tenants_.empty());

  // Phase 1 (serial): pull one update per live tenant and apply it to the
  // tenant's live solver. A source returning nullopt retires its tenant.
  std::vector<std::size_t> participants;
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    Tenant& tenant = tenants_[t];
    if (tenant.exhausted) continue;
    std::optional<admm::ProblemUpdate> update = tenant.source->next();
    if (!update) {
      tenant.exhausted = true;
      continue;
    }
    tenant.solver->apply_update(*update);
    participants.push_back(t);
  }
  if (participants.empty()) return false;

  // Phase 2: deal the shared pool out in rounds until it runs dry or every
  // participant has converged. Grants are decided serially (deterministic),
  // solves run in parallel (disjoint per-tenant state, disjoint report
  // slots), accounting is serial in grant order — so the tick is
  // bit-identical for any scheduler thread count.
  std::vector<std::size_t> pending = participants;
  std::vector<std::int64_t> consumed(tenants_.size(), 0);
  std::vector<bool> converged(tenants_.size(), false);
  int pool = options_.iteration_pool_per_tick;
  const std::size_t rotation =
      static_cast<std::size_t>(tick_index_) % tenants_.size();
  while (pool > 0 && !pending.empty()) {
    // Round-robin order with a rotating start, so the pool's tail is not
    // always denied to the same tenants.
    std::size_t start = 0;
    while (start < pending.size() && pending[start] < rotation) ++start;
    std::vector<std::pair<std::size_t, int>> grants;
    for (std::size_t k = 0; k < pending.size() && pool > 0; ++k) {
      const std::size_t t = pending[(start + k) % pending.size()];
      const int grant = std::min(options_.quantum, pool);
      pool -= grant;
      grants.emplace_back(t, grant);
    }

    std::vector<admm::AdmgReport> reports(grants.size());
    pool_.parallel_for(0, grants.size(), [&](std::size_t g) {
      reports[g] = tenants_[grants[g].first].solver->solve_budgeted(
          grants[g].second);
    });

    for (std::size_t g = 0; g < grants.size(); ++g) {
      const auto [t, grant] = grants[g];
      consumed[t] += reports[g].iterations;
      pool += grant - reports[g].iterations;  // Reclaim the unused grant.
      if (reports[g].status != admm::SolveStatus::BudgetExhausted) {
        // Converged (or watchdog-tripped) tenants leave the round-robin:
        // granting them more of the pool this tick buys nothing.
        pending.erase(std::find(pending.begin(), pending.end(), t));
        if (reports[g].status == admm::SolveStatus::Converged) {
          converged[t] = true;
          tenants_[t].iterations_saved += grant - reports[g].iterations;
        }
      }
    }
  }

  for (const std::size_t t : participants) {
    Tenant& tenant = tenants_[t];
    ++tenant.ticks;
    tenant.iterations_total += consumed[t];
    tenant.tick_iterations.observe(static_cast<double>(consumed[t]));
    if (converged[t]) {
      ++tenant.converged_ticks;
    } else {
      ++tenant.budget_exhausted_ticks;
    }
  }
  ++tick_index_;
  return true;
}

int MultiTenantScheduler::run(int max_ticks) {
  UFC_EXPECTS(max_ticks >= 0);
  int done = 0;
  while (done < max_ticks && run_tick()) ++done;
  return done;
}

void MultiTenantScheduler::record_metrics(obs::MetricsRegistry& out) const {
  out.counter("ctrl.ticks").add(static_cast<std::uint64_t>(tick_index_));
  for (const Tenant& tenant : tenants_) {
    const std::string prefix = "ctrl.tenant." + tenant.name;
    out.counter(prefix + ".ticks")
        .add(static_cast<std::uint64_t>(tenant.ticks));
    out.counter(prefix + ".iterations")
        .add(static_cast<std::uint64_t>(tenant.iterations_total));
    out.counter(prefix + ".converged_ticks")
        .add(static_cast<std::uint64_t>(tenant.converged_ticks));
    out.counter(prefix + ".budget_exhausted")
        .add(static_cast<std::uint64_t>(tenant.budget_exhausted_ticks));
    out.counter(prefix + ".iterations_saved")
        .add(static_cast<std::uint64_t>(tenant.iterations_saved));
    out.histogram(prefix + ".tick_iterations",
                  obs::default_iteration_boundaries())
        .merge(tenant.tick_iterations);
  }
}

}  // namespace ufc::ctrl
