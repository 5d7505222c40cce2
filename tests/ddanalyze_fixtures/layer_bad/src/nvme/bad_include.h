// BAD: nvme may depend on time/vocab/sim/stats only; apps sits far above it.
#ifndef DAREDEVIL_SRC_NVME_BAD_INCLUDE_H_
#define DAREDEVIL_SRC_NVME_BAD_INCLUDE_H_
#include "src/apps/lru.h"

struct NvmeThing {
  int x = 0;
};

#endif  // DAREDEVIL_SRC_NVME_BAD_INCLUDE_H_
