// NVMe command and completion records exchanged between the host-side storage
// stacks and the simulated device.
#ifndef DAREDEVIL_SRC_NVME_COMMAND_H_
#define DAREDEVIL_SRC_NVME_COMMAND_H_

#include <cstdint>

#include "src/core/types.h"
#include "src/sim/clock.h"

namespace daredevil {

// One NVMe I/O command. LBAs are namespace-relative and expressed in 4KB
// pages (the device's logical block size); `pages` is the transfer length.
struct NvmeCommand {
  uint64_t cid = 0;        // command id, unique per device lifetime
  int sqid = -1;           // submission queue the host placed it on
  uint32_t nsid = 0;       // 0-based namespace index
  Lba lba;                 // namespace-relative, in pages
  uint32_t pages = 1;      // transfer size in 4KB pages
  bool is_write = false;
  // NVMe Flush: persists the volatile write cache (no data transfer; `pages`
  // stays 1 for queue-capacity accounting, no flash page is scheduled).
  bool is_flush = false;
  // Force Unit Access on a write: the CQE acknowledges durability, not just
  // cache arrival (the device persists the pages before posting completion).
  bool fua = false;
  // Accumulated while the command is serviced (flash errors set it); copied
  // onto the CQE. kOk unless a FaultPlan is attached and fired.
  IoStatus status = IoStatus::kOk;
  void* cookie = nullptr;  // host-side request pointer, returned on completion

  // Stage timeline accumulated as the command moves through the device; the
  // completion carries it back so the host can attribute latency per stage.
  Tick enqueue_time = 0;      // host placed it in the NSQ
  Tick doorbell_time = 0;     // doorbell made it visible to the controller
  Tick fetch_start_time = 0;  // controller began the fetch/decompose
  Tick fetch_time = 0;        // controller finished fetching/decomposing it
  Tick flash_start_time = 0;  // first page operation started on a chip
  Tick flash_end_time = 0;    // last page operation finished
};

// A completion queue entry. Carries the device-side stage timeline back to
// the host (a real controller logs these via its telemetry pages; here they
// ride in the CQE).
struct NvmeCompletion {
  uint64_t cid = 0;
  int sqid = -1;
  IoStatus status = IoStatus::kOk;  // NVMe CQE status field
  void* cookie = nullptr;
  Tick enqueue_time = 0;
  Tick doorbell_time = 0;
  Tick fetch_start_time = 0;
  Tick fetch_time = 0;
  Tick flash_start_time = 0;
  Tick flash_end_time = 0;
  Tick posted_time = 0;    // controller placed it in the NCQ
  Tick drained_time = 0;   // host driver reaped it (ISR drain or poll)
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_NVME_COMMAND_H_
