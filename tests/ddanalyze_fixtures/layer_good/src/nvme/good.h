// GOOD: nvme -> stats is a declared edge; the core edge is explicitly waived.
#ifndef DAREDEVIL_SRC_NVME_GOOD_H_
#define DAREDEVIL_SRC_NVME_GOOD_H_
#include "src/stats/metrics.h"
#include "src/core/nqreg.h"  // ddanalyze: layer-ok(transitional shim, tracked in ROADMAP)

struct NvmeGood {
  int x = 0;
};

#endif  // DAREDEVIL_SRC_NVME_GOOD_H_
