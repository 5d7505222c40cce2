#include "src/workload/open_loop.h"

#include "src/core/invariant.h"

namespace daredevil {

OpenLoopJob::OpenLoopJob(Machine* machine, StorageStack* stack,
                         const OpenLoopSpec& spec, uint64_t tenant_id, Rng rng,
                         Tick measure_start, Tick measure_end)
    : TenantIo(machine, stack,
               Tenant{TenantId{tenant_id}, spec.name, spec.group, spec.ionice,
                      spec.core, spec.nsid},
               measure_start, measure_end),
      spec_(spec),
      rng_(rng) {
  CheckShape(Lba{0}, spec_.pages);
  DD_CHECK(spec_.iops > 0) << "open-loop job " << spec_.name
                           << " needs a positive arrival rate";
}

void OpenLoopJob::Start() {
  machine_->sim().At(spec_.start_time, [this]() {
    stack_->OnTenantStart(&tenant());
    ScheduleNextArrival();
  });
}

void OpenLoopJob::ScheduleNextArrival() {
  if (machine_->now() >= measure_end_) {
    return;
  }
  // Poisson arrivals: exponential inter-arrival gap for the mean rate. When
  // bursting, the whole burst shares one arrival slot.
  const double mean_gap_ns = 1e9 / spec_.iops;
  const TickDuration gap{static_cast<Tick>(rng_.NextExponential(mean_gap_ns))};
  machine_->sim().After(gap, [this]() {
    const bool burst = spec_.burst_prob > 0 && rng_.NextBool(spec_.burst_prob);
    Arrive(burst ? spec_.burst_len : 1);
    ScheduleNextArrival();
  });
}

void OpenLoopJob::Arrive(int burst_remaining) {
  for (int i = 0; i < burst_remaining; ++i) {
    ++arrivals_;
    if (inflight() >= spec_.max_outstanding) {
      ++dropped_;
      continue;
    }
    Shape shape;
    shape.pages = spec_.pages;
    shape.is_write = spec_.is_write;
    shape.lba = NextStreamLba(rng_, spec_.random, spec_.pages, seq_lba_);
    Issue(shape, nullptr);
  }
}

}  // namespace daredevil
