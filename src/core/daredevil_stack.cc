#include "src/core/daredevil_stack.h"

namespace daredevil {

DaredevilStack::DaredevilStack(Machine* machine, Device* device,
                               const StackCosts& costs, const DaredevilConfig& config)
    : StorageStack(machine, device, costs), config_(config) {
  blex_ = std::make_unique<Blex>(device, machine->num_cores());
  nqreg_ = std::make_unique<NqReg>(blex_.get(), config_);
  troute_ = std::make_unique<TRoute>(blex_.get(), nqreg_.get(), config_);
  ApplyDispatchPolicies();
}

std::string_view DaredevilStack::name() const {
  if (!config_.enable_nq_scheduling) {
    return "dare-base";
  }
  if (!config_.enable_sla_dispatch) {
    return "dare-sched";
  }
  return "daredevil";
}

void DaredevilStack::ApplyDispatchPolicies() {
  if (!config_.enable_sla_dispatch) {
    return;  // dare-base / dare-sched: kernel-default dispatching everywhere
  }
  // SLA-aware I/O service dispatching (§5.3): high-priority NSQs notify the
  // controller immediately (the base default); low-priority NSQs batch their
  // doorbells. High-priority NCQs take the per-request completion path.
  for (int nsq = 0; nsq < device().nr_nsq(); ++nsq) {
    if (nqreg_->GroupOfNsq(nsq) == NqPrio::kLow) {
      DoorbellPolicy policy;
      policy.batched = true;
      policy.batch = config_.doorbell_batch;
      policy.timeout = config_.doorbell_timeout;
      SetDoorbellPolicy(nsq, policy);
    }
  }
  for (int ncq = 0; ncq < device().nr_ncq(); ++ncq) {
    SetCompletionPath(ncq, nqreg_->GroupOfNcq(ncq) == NqPrio::kHigh);
  }
  // Optional extensions (see DaredevilConfig): WRR fetch weights for the
  // high-priority group and polled completion for its NCQs.
  if (config_.wrr_high_weight > 1) {
    for (int nsq = 0; nsq < device().nr_nsq(); ++nsq) {
      if (nqreg_->GroupOfNsq(nsq) == NqPrio::kHigh) {
        device().nsq(nsq).set_weight(config_.wrr_high_weight);
      }
    }
  }
  if (config_.poll_interval > kZeroDuration) {
    for (int ncq = 0; ncq < device().nr_ncq(); ++ncq) {
      if (nqreg_->GroupOfNcq(ncq) == NqPrio::kHigh) {
        EnablePolledCompletion(ncq, config_.poll_interval);
      }
    }
  }
}

void DaredevilStack::RegisterMetrics(MetricsRegistry* registry) const {
  StorageStack::RegisterMetrics(registry);
  const DaredevilStack* s = this;
  registry->RegisterGauge("daredevil.nqreg_schedules", [s]() {
    return static_cast<double>(s->nqreg_->schedules());
  });
  registry->RegisterGauge("daredevil.nqreg_heap_resorts", [s]() {
    return static_cast<double>(s->nqreg_->heap_resorts());
  });
  registry->RegisterGauge("daredevil.troute_priority_updates", [s]() {
    return static_cast<double>(s->troute_->priority_updates());
  });
  registry->RegisterGauge("daredevil.troute_queries", [s]() {
    return static_cast<double>(s->troute_->per_request_queries());
  });
}

void DaredevilStack::OnTenantStart(Tenant* tenant) { troute_->OnTenantStart(tenant); }

void DaredevilStack::OnTenantExit(Tenant* tenant) { troute_->OnTenantExit(tenant); }

void DaredevilStack::OnIoniceChange(Tenant* tenant) {
  // The default-NSQ update runs along the kernel's ionice-change path,
  // asynchronously to the critical I/O path (§5.2): charge kernel work on
  // the tenant's core, then update.
  machine().Post(tenant->core, WorkLevel::kKernel, config_.ionice_update_cost,
                 [this, tenant]() { troute_->OnIoniceChange(tenant); });
}

void DaredevilStack::OnTenantMigrated(Tenant* tenant, int old_core) {
  troute_->OnTenantMigrated(tenant, old_core);
}

int DaredevilStack::RouteRequest(Request* rq) { return troute_->Route(rq); }

TickDuration DaredevilStack::RoutingCost(const Request& rq) const {
  TickDuration cost = config_.routing_cost;
  if (troute_->NeedsPerRequestQuery(rq)) {
    cost += config_.schedule_query_cost;
  }
  return cost;
}

}  // namespace daredevil
