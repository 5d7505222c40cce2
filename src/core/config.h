// Daredevil configuration knobs (§7 parameter setup) and the ablation
// switches of §7.3 (dare-base / dare-sched / dare-full).
#ifndef DAREDEVIL_SRC_CORE_CONFIG_H_
#define DAREDEVIL_SRC_CORE_CONFIG_H_

#include "src/core/types.h"
#include "src/sim/clock.h"

namespace daredevil {

struct DaredevilConfig {
  // Exponential-smoothing weight for NQ merits; the paper uses 0.8.
  double alpha = 0.8;
  // MRU budget per min-heap; the paper sets it to the NQ depth (1024).
  int mru = 1024;

  // Ablation switches (§7.3):
  //   dare-base : scheduling off, dispatch off (round-robin routing)
  //   dare-sched: scheduling on,  dispatch off
  //   dare-full : scheduling on,  dispatch on
  bool enable_nq_scheduling = true;
  bool enable_sla_dispatch = true;

  // SLA-aware submission dispatching: low-priority NSQs postpone the doorbell
  // until a batch accumulates (§5.3).
  int doorbell_batch = 8;
  TickDuration doorbell_timeout{100 * kMicrosecond};

  // Outlier profiling: re-evaluate a T-tenant's outlier tendency every this
  // many requests; tagged when outlier requests are within one order of
  // magnitude of normal ones (§5.2).
  int outlier_profile_window = 64;

  // Extensions beyond the paper's prototype (off by default; see
  // bench_ablation_mechanisms):
  // Weighted-round-robin fetch weight of the high-priority-group NSQs (T
  // NSQs keep weight 1); 1 = no weighting.
  int wrr_high_weight = 1;
  // Poll high-priority NCQs at this interval instead of taking IRQs (0 = IRQ).
  TickDuration poll_interval{0};

  // CPU cost model of the Daredevil-specific kernel work.
  TickDuration routing_cost{400};         // Algorithm 1 per request
  TickDuration schedule_query_cost{600};  // extra nqreg query (request-specific ctx)
  TickDuration ionice_update_cost{10 * kMicrosecond};  // ionice path + RCU sync + re-scheduling
};

inline DaredevilConfig DareBaseConfig() {
  DaredevilConfig c;
  c.enable_nq_scheduling = false;
  c.enable_sla_dispatch = false;
  return c;
}

inline DaredevilConfig DareSchedConfig() {
  DaredevilConfig c;
  c.enable_sla_dispatch = false;
  return c;
}

inline DaredevilConfig DareFullConfig() { return DaredevilConfig{}; }

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_CORE_CONFIG_H_
