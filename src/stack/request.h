// Block-layer I/O request and tenant descriptors shared by all storage
// stacks (the simulation's analogue of struct bio/request + task_struct).
#ifndef DAREDEVIL_SRC_STACK_REQUEST_H_
#define DAREDEVIL_SRC_STACK_REQUEST_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/core/types.h"
#include "src/sim/clock.h"

namespace daredevil {

// Size of one logical page / block-layer sector unit. All byte quantities in
// the simulation derive from page counts via this constant (ddanalyze's
// page-literal rule flags raw 4096 arithmetic elsewhere).
inline constexpr uint64_t kPageBytes = 4096;  // ddanalyze: units-ok(definition)

// The ionice class carried by a tenant's task_struct. Real-time tenants are
// L-tenants; best-effort/idle are T-tenants (troute's SLA assessment, §5.2).
enum class IoniceClass {
  kRealtime,
  kBestEffort,
  kIdle,
};

inline const char* IoniceName(IoniceClass c) {
  switch (c) {
    case IoniceClass::kRealtime:
      return "realtime";
    case IoniceClass::kBestEffort:
      return "best-effort";
    case IoniceClass::kIdle:
      return "idle";
  }
  return "?";
}

// A process (or thread) demanding I/O service. Tenants are owned by the
// workload layer; stacks receive stable pointers.
struct Tenant {
  TenantId id;  // nonzero; kNoTenant means "no tenant"
  std::string name;
  std::string group;  // stats label: "L", "T", "TL", ...
  IoniceClass ionice = IoniceClass::kBestEffort;
  int core = 0;       // current CPU; stacks with cross-core scheduling move it
  // The namespace the tenant's I/O targets (per-namespace stacks like
  // blk-switch keep their scheduling state under this key).
  uint32_t primary_nsid = 0;

  bool IsLatencySensitive() const { return ionice == IoniceClass::kRealtime; }
};

struct Request {
  uint64_t id = 0;
  Tenant* tenant = nullptr;
  uint32_t nsid = 0;
  Lba lba;               // namespace-relative, in 4KB pages
  uint32_t pages = 1;
  bool is_write = false;
  bool is_sync = false;  // REQ_SYNC analogue
  bool is_meta = false;  // REQ_META analogue
  bool is_flush = false;  // cache-flush barrier (REQ_OP_FLUSH analogue)
  bool is_fua = false;    // write acknowledges durability (REQ_FUA)

  int submit_core = 0;   // core the syscall ran on

  // Lifecycle stage timeline (src/core/types.h). The workload layer and the
  // storage stack stamp the host side; the NVMe command carries it through
  // the device, which adds its stamps, and the completion's copy replaces
  // this one on delivery.
  Timeline t;

  int routed_nsq = -1;     // recorded for invariant checks

  // Completion status delivered to the tenant. kOk unless the fault layer
  // failed the command and the stack exhausted its retries.
  IoStatus status = IoStatus::kOk;
  // Retries consumed by the stack's timeout/error recovery for this I/O.
  uint16_t fault_retries = 0;
  // Command id of the current attempt. 0 = first attempt (cid == id); retried
  // attempts get a fresh cid because the device may still hold the aborted
  // attempt's cid in its in-flight table.
  uint64_t attempt_cid = 0;

  // Invoked in user context on the tenant's core when the I/O completes.
  std::function<void(Request*)> on_complete;

  // Outlier L-requests are sync or metadata requests (REQ_HIPRIO analogue).
  bool IsOutlier() const { return is_sync || is_meta; }
  uint64_t bytes() const { return static_cast<uint64_t>(pages) * kPageBytes; }

  void ResetTimeline() {
    t = Timeline{};
    status = IoStatus::kOk;
    fault_retries = 0;
    attempt_cid = 0;
  }

  // Re-arms the request for a retry attempt after a timeout abort or an error
  // CQE: the previous attempt's stage stamps are cleared (the retry traverses
  // the whole submission path again) but t.issue survives, so end-to-end
  // latency — and the kSubmit stage, which absorbs the backoff — covers every
  // attempt. fault_retries carries the attempt count across the reset.
  void PrepareRetry() {
    const Tick issue = t.issue;
    const uint16_t retries = fault_retries;
    ResetTimeline();
    t.issue = issue;
    fault_retries = retries;
    routed_nsq = -1;
  }
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_STACK_REQUEST_H_
