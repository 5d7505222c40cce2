#include "src/blkswitch/blkswitch_stack.h"

#include <algorithm>
#include <cmath>

namespace daredevil {

BlkSwitchStack::BlkSwitchStack(Machine* machine, Device* device,
                               const StackCosts& costs, const BlkSwitchConfig& config)
    : StorageStack(machine, device, costs),
      config_(config),
      nr_hw_(std::max(1, std::min(machine->num_cores(), device->nr_nsq()))),
      rng_(config.seed) {
  per_ns_.resize(static_cast<size_t>(device->num_namespaces()));
  for (auto& ns : per_ns_) {
    ns.t_outstanding_bytes.assign(static_cast<size_t>(nr_hw_), 0);
    ns.t_core.assign(static_cast<size_t>(machine->num_cores()), false);
  }
}

BlkSwitchStack::PerNamespace& BlkSwitchStack::ns_state(uint32_t nsid) {
  DD_CHECK(nsid < per_ns_.size())
      << "nsid=" << nsid << " outside the device's " << per_ns_.size()
      << " namespaces";
  return per_ns_[nsid];
}

void BlkSwitchStack::RegisterMetrics(MetricsRegistry* registry) const {
  StorageStack::RegisterMetrics(registry);
  const BlkSwitchStack* s = this;
  registry->RegisterGauge("blkswitch.migrations", [s]() {
    return static_cast<double>(s->migrations());
  });
  registry->RegisterGauge("blkswitch.steered_requests", [s]() {
    return static_cast<double>(s->steered_requests());
  });
  registry->RegisterGauge("blkswitch.spilled_requests", [s]() {
    return static_cast<double>(s->spilled_requests());
  });
}

void BlkSwitchStack::OnTenantStart(Tenant* tenant) {
  PerNamespace& ns = ns_state(tenant->primary_nsid);
  ns.tenants.push_back(tenant);
  ++num_tenants_;
  RecomputePartition(ns);
  ArmReschedTimer();
}

void BlkSwitchStack::OnTenantExit(Tenant* tenant) {
  PerNamespace& ns = ns_state(tenant->primary_nsid);
  const auto before = ns.tenants.size();
  ns.tenants.erase(std::remove(ns.tenants.begin(), ns.tenants.end(), tenant),
                   ns.tenants.end());
  num_tenants_ -= before - ns.tenants.size();
  RecomputePartition(ns);
}

void BlkSwitchStack::RecomputePartition(PerNamespace& ns) {
  const int cores = machine().num_cores();
  int n_l = 0;
  int n_t = 0;
  for (const Tenant* t : ns.tenants) {
    (t->IsLatencySensitive() ? n_l : n_t) += 1;
  }
  std::fill(ns.t_core.begin(), ns.t_core.end(), false);
  if (n_t == 0 || cores < 1) {
    return;
  }
  int k_t;
  if (n_l == 0) {
    // The namespace's blk-mq structure sees no L-tenants at all, so every
    // core looks free for T traffic. With other namespaces hosting
    // L-tenants on those same cores/NQs, this is the Figure 3c blindness.
    k_t = cores;
  } else {
    const double share = static_cast<double>(n_t) / static_cast<double>(n_l + n_t);
    k_t = std::clamp(static_cast<int>(std::lround(share * cores)), 1, cores - 1);
  }
  // The highest-numbered cores are designated for T-tenants.
  for (int c = cores - k_t; c < cores; ++c) {
    ns.t_core[static_cast<size_t>(c)] = true;
  }
}

int BlkSwitchStack::SteerTarget(uint32_t nsid) {
  PerNamespace& ns = ns_state(nsid);
  auto pick_min = [&](bool t_cores_only) {
    uint64_t best_bytes = 0;
    int best = -1;
    int ties = 0;
    for (int q = 0; q < nr_hw_; ++q) {
      if (t_cores_only && !ns.t_core[static_cast<size_t>(q % machine().num_cores())]) {
        continue;
      }
      const uint64_t bytes = ns.t_outstanding_bytes[static_cast<size_t>(q)];
      if (best < 0 || bytes < best_bytes) {
        best = q;
        best_bytes = bytes;
        ties = 1;
      } else if (bytes == best_bytes) {
        // Reservoir-sample among ties.
        ++ties;
        if (rng_.NextBelow(static_cast<uint64_t>(ties)) == 0) {
          best = q;
        }
      }
    }
    return std::pair<int, uint64_t>(best, best_bytes);
  };

  auto [target, bytes] = pick_min(/*t_cores_only=*/true);
  if (target >= 0 && bytes <= config_.spill_bytes) {
    return target;
  }
  // The T-core NQs are saturated (or no T-core exists): blk-switch's
  // balancing objective takes over and it spreads across every NQ, re-mixing
  // T-requests with L traffic.
  auto [any_target, any_bytes] = pick_min(/*t_cores_only=*/false);
  (void)any_bytes;
  if (target >= 0 && any_target != target) {
    ++spilled_;
  }
  return any_target >= 0 ? any_target : 0;
}

int BlkSwitchStack::RouteRequest(Request* rq) {
  PerNamespace& ns = ns_state(rq->nsid);
  if (IsLatencyClass(*rq)) {
    // Prioritized processing: L-requests stay on their own core's NQ.
    return rq->submit_core % nr_hw_;
  }
  const int target = SteerTarget(rq->nsid);
  DD_CHECK(target >= 0 && target < nr_hw_)
      << "rq=" << rq->id << " steered to invalid NQ " << target;
  if (target != rq->submit_core % nr_hw_) {
    ++steered_;
  }
  ns.t_outstanding_bytes[static_cast<size_t>(target)] += rq->bytes();
  return target;
}

TickDuration BlkSwitchStack::RoutingCost(const Request& rq) const {
  return IsLatencyClass(rq) ? kZeroDuration : config_.steering_cost;
}

void BlkSwitchStack::OnRequestCompleted(Request* rq) {
  if (IsLatencyClass(*rq) || rq->routed_nsq < 0) {
    return;
  }
  PerNamespace& ns = ns_state(rq->nsid);
  auto& outstanding = ns.t_outstanding_bytes[static_cast<size_t>(rq->routed_nsq)];
  const uint64_t bytes = rq->bytes();
  outstanding = outstanding >= bytes ? outstanding - bytes : 0;
}

void BlkSwitchStack::ArmReschedTimer() {
  if (resched_armed_ || resched_stopped_) {
    return;
  }
  resched_armed_ = true;
  machine().sim().After(config_.resched_interval, [this]() {
    resched_armed_ = false;
    if (resched_stopped_) {
      return;
    }
    ReschedTick();
    if (num_tenants_ > 0) {
      ArmReschedTimer();
    }
  });
}

void BlkSwitchStack::ReschedTick() {
  ++rotate_;
  int budget = config_.max_migrations_per_tick;
  for (auto& ns : per_ns_) {
    if (!ns.tenants.empty()) {
      RecomputePartition(ns);
      ReschedNamespace(ns, &budget);
    }
  }
}

void BlkSwitchStack::ReschedNamespace(PerNamespace& ns, int* budget) {
  const int cores = machine().num_cores();
  std::vector<int> l_cores;
  std::vector<int> t_cores;
  for (int c = 0; c < cores; ++c) {
    (ns.t_core[static_cast<size_t>(c)] ? t_cores : l_cores).push_back(c);
  }
  if (t_cores.empty()) {
    return;
  }
  if (l_cores.empty()) {
    // T-only namespace: balance its tenants over every core.
    l_cores = t_cores;
  }

  // Desired placement: L-tenants round-robin over L-cores; T-tenants fill the
  // T-core scheduling slots; the overflow spills onto any core, rotating each
  // period (the thrash under high T-pressure).
  const int t_slots =
      static_cast<int>(t_cores.size()) * config_.max_t_apps_per_core;
  int l_index = 0;
  int t_index = 0;
  for (Tenant* tenant : ns.tenants) {
    int desired;
    if (tenant->IsLatencySensitive()) {
      desired =
          l_cores[static_cast<size_t>(l_index++ % static_cast<int>(l_cores.size()))];
    } else {
      const int i = t_index++;
      if (i < t_slots) {
        desired = t_cores[static_cast<size_t>(i % static_cast<int>(t_cores.size()))];
      } else {
        desired = (i - t_slots + rotate_) % cores;
      }
    }
    if (desired == tenant->core || *budget <= 0) {
      continue;
    }
    --(*budget);
    const int old_core = tenant->core;
    tenant->core = desired;
    ++migrations_;
    if (trace() != nullptr) {
      trace()->Record(machine().now(), TraceCategory::kMigrate,
                      tenant->id.value(),
                      old_core, desired);
    }
    // Migration overhead lands on both cores (runqueue + cache refill costs).
    machine().Post(old_core, WorkLevel::kKernel, config_.migration_cost, nullptr);
    machine().Post(desired, WorkLevel::kKernel, config_.migration_cost, nullptr);
  }
}

}  // namespace daredevil
