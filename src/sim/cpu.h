// Simulated CPU cores.
//
// Each core executes work items serially. Work items carry a privilege level
// (IRQ > kernel > user); the core always picks the highest-priority pending
// item next, FIFO within a level. Execution is non-preemptive at work-item
// granularity, so callers model long computations as chains of short chunks.
// Tenants that post one item at a time therefore round-robin naturally,
// approximating a time-sliced scheduler at microsecond scales.
#ifndef DAREDEVIL_SRC_SIM_CPU_H_
#define DAREDEVIL_SRC_SIM_CPU_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/types.h"
#include "src/sim/clock.h"
#include "src/sim/engine/event_fn.h"
#include "src/sim/ring_fifo.h"
#include "src/sim/simulator.h"

namespace daredevil {

class ShardContext;  // src/sim/shard.h

enum class WorkLevel : int {
  kIrq = 0,     // interrupt service routines
  kKernel = 1,  // syscall/block-layer/driver work
  kUser = 2,    // tenant userspace work
};
inline constexpr int kNumWorkLevels = 3;

class CpuCore {
 public:
  // dispatch_overhead models the fixed cost of switching to a new work item
  // (context switch / mode switch), charged once per item.
  CpuCore(Simulator* sim, CoreId id, TickDuration dispatch_overhead);
  CpuCore(const CpuCore&) = delete;
  CpuCore& operator=(const CpuCore&) = delete;

  // Enqueues a work item. fn runs when the item's computation finishes.
  void Post(WorkLevel level, TickDuration duration, EventFn fn);

  CoreId id() const { return id_; }
  bool busy() const { return running_; }
  size_t QueueDepth(WorkLevel level) const {
    return queues_[static_cast<int>(level)].size();
  }
  size_t TotalQueueDepth() const;

  TickDuration busy_ns(WorkLevel level) const {
    return busy_ns_[static_cast<int>(level)];
  }
  TickDuration total_busy_ns() const;
  uint64_t items_executed() const { return items_executed_; }

 private:
  struct Work {
    WorkLevel level;
    TickDuration duration;
    EventFn fn;
  };

  void MaybeRun();
  // Completion of the item in current_: accounting, then the callback. The
  // in-flight item lives in a member so the scheduled event captures only
  // `this` and stays inside EventFn's inline storage.
  void FinishCurrent();

  Simulator* sim_;
  CoreId id_;
  TickDuration dispatch_overhead_;
  RingFifo<Work> queues_[kNumWorkLevels];
  bool running_ = false;
  Work current_{};         // valid only while running_
  TickDuration current_cost_;  // dispatch overhead + current_.duration
  TickDuration busy_ns_[kNumWorkLevels];
  uint64_t items_executed_ = 0;
};

// A set of cores sharing one simulator, plus cross-core signalling costs.
class Machine {
 public:
  struct Config {
    int num_cores = 4;
    // Per-work-item switch cost (0.3us).
    TickDuration dispatch_overhead{300};
    // IPI + wakeup + cache effects.
    TickDuration cross_core_wakeup{5 * kMicrosecond};
  };

  Machine(Simulator* sim, const Config& config);
  // Shard-rooted construction: drives the shard's own simulator. The machine
  // holds no reference to the context beyond its event loop — ownership of
  // the other per-shard roots (RNG, metrics sink) stays with ShardContext.
  Machine(ShardContext* shard, const Config& config);

  int num_cores() const { return static_cast<int>(cores_.size()); }
  CpuCore& core(int i) { return *cores_[i]; }
  const CpuCore& core(int i) const { return *cores_[i]; }
  Simulator& sim() { return *sim_; }
  Tick now() const { return sim_->now(); }

  // Posts work to a core. If from_core differs from core (a cross-core wakeup
  // or IPI), the item is delayed by the cross-core cost and the event counted.
  void Post(int core, WorkLevel level, TickDuration duration, EventFn fn,
            int from_core = -1);

  uint64_t cross_core_posts() const { return cross_core_posts_; }
  TickDuration total_busy_ns() const;
  // Fraction of [from, to) during which cores were busy, averaged over cores.
  // Callers snapshot total_busy_ns() at `from` themselves for windowed stats.
  double Utilization(TickDuration busy_at_from, Tick from, Tick to) const;

 private:
  // Delivery of the front of cross_pending_ after the wakeup delay. The
  // payload waits in the ring so the scheduled event captures only `this`;
  // the wakeup delay is one constant, so FIFO order is event order.
  void DeliverCrossPost();

  struct CrossPost {
    int core;
    WorkLevel level;
    TickDuration duration;
    EventFn fn;
  };

  Simulator* sim_;
  Config config_;
  std::vector<std::unique_ptr<CpuCore>> cores_;
  RingFifo<CrossPost> cross_pending_;
  uint64_t cross_core_posts_ = 0;
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_SIM_CPU_H_
