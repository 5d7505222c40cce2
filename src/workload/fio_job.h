// FIO-like closed-loop workload generator (the paper evaluates with FIO jobs:
// L-tenants = 4KB random QD1 realtime-ionice, T-tenants = 128KB QD32
// best-effort, both via libaio).
#ifndef DAREDEVIL_SRC_WORKLOAD_FIO_JOB_H_
#define DAREDEVIL_SRC_WORKLOAD_FIO_JOB_H_

#include <string>

#include "src/sim/rng.h"
#include "src/stack/tenant_io.h"

namespace daredevil {

struct FioJobSpec {
  std::string name;
  std::string group = "T";  // stats label ("L", "T", "TL", ...)
  IoniceClass ionice = IoniceClass::kBestEffort;
  uint32_t nsid = 0;
  uint32_t pages = 32;  // request size in 4KB pages (32 => 128KB)
  int iodepth = 32;
  bool is_write = false;
  bool random = true;
  double sync_prob = 0.0;  // probability a request carries REQ_SYNC
  double meta_prob = 0.0;  // probability a request carries REQ_META
  TickDuration think_time{0};  // delay between completion and next issue
  Tick start_time = 0;
  Tick stop_time = -1;     // -1 => run until the scenario ends
  int core = -1;           // -1 => assigned round-robin by the scenario

  // Fault/behaviour injection used by the overhead experiments:
  // >0: re-apply the tenant's ionice value periodically, triggering the
  // kernel update path and Daredevil's default-NSQ re-scheduling (Fig 14).
  TickDuration ionice_update_interval{0};
  TickDuration migrate_interval{0};  // >0: hop cores periodically (Fig 13)
};

// Both specs initialize their strings instead of assigning them: GCC 12 at
// -O3 reports false -Wrestrict overlaps for `spec.group = "L"` and
// `"L" + std::to_string(index)` wherever these inline.
inline FioJobSpec LTenantSpec(int index, uint32_t nsid = 0) {
  return FioJobSpec{.name = 'L' + std::to_string(index),
                    .group = "L",
                    .ionice = IoniceClass::kRealtime,
                    .nsid = nsid,
                    .pages = 1,  // 4KB
                    .iodepth = 1,
                    .is_write = false,
                    .random = true};
}

inline FioJobSpec TTenantSpec(int index, uint32_t nsid = 0) {
  return FioJobSpec{.name = 'T' + std::to_string(index),
                    .group = "T",
                    .ionice = IoniceClass::kBestEffort,
                    .nsid = nsid,
                    .pages = 32,  // 128KB
                    .iodepth = 32,
                    .is_write = true,
                    .random = false};  // streaming
}

// A closed-loop job over the tenant I/O core: keeps `iodepth` requests in
// flight, re-issuing each after its delivery (plus the think time) until the
// stop time; optionally re-applies its ionice value or hops cores.
class FioJob : public TenantIo {
 public:
  FioJob(Machine* machine, StorageStack* stack, const FioJobSpec& spec,
         uint64_t tenant_id, int core, Rng rng, Tick measure_start,
         Tick measure_end);

  // Schedules the job's first issues (and periodic behaviours) on the
  // simulator; the job then self-perpetuates in closed loop.
  void Start();

  const FioJobSpec& spec() const { return spec_; }

 private:
  void IssueOne();
  void ScheduleNextIssue();
  void ArmIoniceUpdate();
  void ArmMigration();
  bool Stopped() const;

  FioJobSpec spec_;
  Rng rng_;
  uint64_t seq_lba_ = 0;
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_WORKLOAD_FIO_JOB_H_
