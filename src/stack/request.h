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

  // --- Lifecycle stage timeline (Figure 1's I/O service routine) --------
  // Host-side timestamps are stamped by the workload layer and the storage
  // stack; device-side ones travel back with the NVMe completion and are
  // copied here on delivery. All are 0 until reached; a completed request
  // that traversed the device has the full monotonic chain
  //   issue <= submit <= nsq_enqueue <= doorbell <= fetch_start <= fetch
  //         <= flash_start <= flash_end <= cqe_post <= drain <= complete.
  Tick issue_time = 0;        // tenant initiated the I/O (userspace)
  Tick submit_time = 0;       // entered the block layer
  Tick nsq_enqueue_time = 0;  // placed in its NSQ (after routing + lock)
  Tick doorbell_time = 0;     // doorbell rung: visible to the controller
  Tick fetch_start_time = 0;  // controller began fetching the command
  Tick fetch_time = 0;        // fetch/decompose finished
  Tick flash_start_time = 0;  // first page started on a flash chip
  Tick flash_end_time = 0;    // last page finished flash service
  Tick cqe_post_time = 0;     // completion posted to the bound NCQ
  Tick drain_time = 0;        // driver reaped the CQE (ISR drain or poll)
  Tick complete_time = 0;     // completion delivered back to userspace

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

  // True when the request carries the complete device-side timeline (split
  // parents complete via their children and never see the device directly).
  bool HasDeviceTimeline() const {
    return fetch_start_time > 0 && flash_end_time > 0 && drain_time > 0 &&
           complete_time > 0;
  }

  void ResetTimeline() {
    issue_time = submit_time = nsq_enqueue_time = doorbell_time = 0;
    fetch_start_time = fetch_time = flash_start_time = flash_end_time = 0;
    cqe_post_time = drain_time = complete_time = 0;
    status = IoStatus::kOk;
    fault_retries = 0;
    attempt_cid = 0;
  }

  // Re-arms the request for a retry attempt after a timeout abort or an error
  // CQE: the previous attempt's stage stamps are cleared (the retry traverses
  // the whole submission path again) but issue_time survives, so end-to-end
  // latency — and the kSubmit stage, which absorbs the backoff — covers every
  // attempt. fault_retries carries the attempt count across the reset.
  void PrepareRetry() {
    const Tick issue = issue_time;
    const uint16_t retries = fault_retries;
    ResetTimeline();
    issue_time = issue;
    fault_retries = retries;
    routed_nsq = -1;
  }
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_STACK_REQUEST_H_
