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

  // The request's stage timeline: the host's stamps ride through untouched
  // (like the cookie) and the device adds its own as the command moves
  // through it; the completion carries it back.
  Timeline t;
};

// A completion queue entry. Carries the stage timeline back to the host (a
// real controller logs the device stamps via its telemetry pages; here they
// ride in the CQE).
struct NvmeCompletion {
  uint64_t cid = 0;
  int sqid = -1;
  IoStatus status = IoStatus::kOk;  // NVMe CQE status field
  void* cookie = nullptr;
  Timeline t;  // the command's, plus cqe_post and drain
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_NVME_COMMAND_H_
