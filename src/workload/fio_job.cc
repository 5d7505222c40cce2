#include "src/workload/fio_job.h"

namespace daredevil {

FioJob::FioJob(Machine* machine, StorageStack* stack, const FioJobSpec& spec,
               uint64_t tenant_id, int core, Rng rng, Tick measure_start,
               Tick measure_end)
    : TenantIo(machine, stack,
               Tenant{TenantId{tenant_id}, spec.name, spec.group, spec.ionice,
                      core, spec.nsid},
               measure_start, measure_end),
      spec_(spec),
      rng_(rng) {
  CheckShape(Lba{0}, spec_.pages);
  ReservePool(spec_.iodepth);
  // Streaming jobs start at a random aligned offset so concurrent T-tenants
  // do not all hammer the same flash chips.
  seq_lba_ = rng_.NextBelow(namespace_pages() / spec_.pages) * spec_.pages;
}

bool FioJob::Stopped() const {
  const Tick now = machine_->now();
  if (spec_.stop_time >= 0 && now >= spec_.stop_time) {
    return true;
  }
  return false;
}

void FioJob::Start() {
  machine_->sim().At(spec_.start_time, [this]() {
    stack_->OnTenantStart(&tenant());
    for (int i = 0; i < spec_.iodepth; ++i) {
      IssueOne();
    }
  });
  if (spec_.ionice_update_interval > kZeroDuration) {
    ArmIoniceUpdate();
  }
  if (spec_.migrate_interval > kZeroDuration) {
    ArmMigration();
  }
}

void FioJob::IssueOne() {
  if (inflight() >= spec_.iodepth || Stopped()) {
    return;
  }
  Shape shape;
  shape.pages = spec_.pages;
  shape.is_write = spec_.is_write;
  // NextBool draws nothing for a zero probability.
  shape.is_sync = rng_.NextBool(spec_.sync_prob);
  shape.is_meta = rng_.NextBool(spec_.meta_prob);
  shape.lba = NextStreamLba(rng_, spec_.random, spec_.pages, seq_lba_);
  Issue(shape, [this]() { ScheduleNextIssue(); });
}

void FioJob::ScheduleNextIssue() {
  if (Stopped()) {
    return;
  }
  if (spec_.think_time > kZeroDuration) {
    machine_->sim().After(spec_.think_time, [this]() { IssueOne(); });
  } else {
    IssueOne();
  }
}

void FioJob::ArmIoniceUpdate() {
  machine_->sim().After(spec_.ionice_update_interval, [this]() {
    if (machine_->now() >= measure_end_) {
      return;
    }
    // Re-applying the (unchanged) ionice value runs the kernel update path,
    // which re-schedules the tenant's default NSQ in Daredevil (§7.5). The
    // updater is a userspace syscall loop: the next update is armed only
    // after this one's syscall ran, so it self-throttles under CPU
    // saturation like the paper's updater.
    machine_->Post(tenant().core, WorkLevel::kUser, stack_->costs().syscall,
                   [this]() {
                     stack_->OnIoniceChange(&tenant());
                     ArmIoniceUpdate();
                   });
  });
}

void FioJob::ArmMigration() {
  machine_->sim().After(spec_.migrate_interval, [this]() {
    if (machine_->now() >= measure_end_) {
      return;
    }
    const int old_core = tenant().core;
    const int new_core =
        static_cast<int>(rng_.NextBelow(static_cast<uint64_t>(machine_->num_cores())));
    if (new_core != old_core) {
      tenant().core = new_core;
      stack_->OnTenantMigrated(&tenant(), old_core);
    }
    ArmMigration();
  });
}

}  // namespace daredevil
