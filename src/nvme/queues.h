// NVMe submission and completion queues.
//
// Submission queues live in host memory: the host enqueues commands and rings
// a doorbell to make them visible to the controller. The per-queue submit
// lock models the host-side tail-doorbell serialization that Daredevil's NSQ
// merit measures (nq.in_contention_us in Algorithm 2).
#ifndef DAREDEVIL_SRC_NVME_QUEUES_H_
#define DAREDEVIL_SRC_NVME_QUEUES_H_

#include <cstddef>
#include <cstdint>

#include "src/core/invariant.h"
#include "src/core/types.h"
#include "src/nvme/command.h"
#include "src/sim/clock.h"
#include "src/sim/ring_fifo.h"

namespace daredevil {

class SubmissionQueue {
 public:
  SubmissionQueue(QueueId id, int depth) : id_(id), depth_(depth) {}

  QueueId id() const { return id_; }
  int depth() const { return depth_; }
  // Weighted-round-robin arbitration weight (>=1): the controller fetches
  // weight x arb_burst commands per visit.
  int weight() const { return weight_; }
  void set_weight(int w) { weight_ = w >= 1 ? w : 1; }
  size_t size() const { return entries_.size(); }
  bool full() const { return entries_.size() >= static_cast<size_t>(depth_); }
  // Entries the controller may fetch (doorbell has been rung for them).
  size_t visible() const { return visible_; }
  bool armed() const { return visible_ > 0; }

  // Host side. Returns false when the ring is full.
  bool Enqueue(NvmeCommand cmd) {
    if (full()) {
      ++full_rejections_;
      return false;
    }
    entries_.push_back(cmd);
    ++submitted_rqs_;
    if (entries_.size() > max_occupancy_) {
      max_occupancy_ = entries_.size();
    }
    return true;
  }

  // Makes all enqueued entries visible to the controller, stamping the
  // doorbell time on the entries that just became visible.
  void RingDoorbell(Tick now = 0) {
    // Head-tail consistency: the visible prefix can never exceed the ring
    // occupancy (a regression means PopVisible/Enqueue bookkeeping skew).
    DD_CHECK_LE(visible_, entries_.size())
        << "NSQ " << id_ << " doorbell tail ahead of ring occupancy";
    for (size_t i = visible_; i < entries_.size(); ++i) {
      entries_[i].t.doorbell = now;
    }
    visible_ = entries_.size();
  }

  // Controller side: removes the oldest visible entry. Requires armed().
  NvmeCommand PopVisible() {
    DD_CHECK(visible_ > 0 && !entries_.empty())
        << "NSQ " << id_ << " fetch from empty/unarmed queue (visible="
        << visible_ << " size=" << entries_.size() << ")";
    NvmeCommand cmd = entries_.front();
    entries_.pop_front();
    --visible_;
    return cmd;
  }
  const NvmeCommand& PeekVisible() const { return entries_.front(); }

  // Host abort path: removes the entry with command id `cid` wherever it sits
  // in the ring (visible or not — NVMe's Abort admin command can reach both).
  // Returns true when an entry was removed; the doorbell tail bookkeeping is
  // adjusted so the visible prefix keeps covering the same commands.
  bool RemoveById(uint64_t cid) {
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].cid != cid) {
        continue;
      }
      entries_.erase_at(i);
      if (i < visible_) {
        --visible_;
      }
      return true;
    }
    return false;
  }

  // Serializes concurrent host submitters; returns the extra time incurred
  // (lock wait plus, when a different core touched the queue last, the
  // cacheline-transfer penalty of the remote doorbell access) and accounts it
  // as contention time - the signal nqreg's NSQ merit consumes (§5.2/§5.3).
  TickDuration AcquireSubmitLock(Tick now, TickDuration hold,
                                 CoreId core = kNoCore,
                                 TickDuration remote_penalty = kZeroDuration) {
    TickDuration wait = lock_free_at_ > now ? DurationBetween(now, lock_free_at_)
                                            : kZeroDuration;
    if (core != kNoCore && last_core_ != kNoCore && core != last_core_) {
      wait += remote_penalty;
      ++remote_acquires_;
    }
    if (core != kNoCore) {
      last_core_ = core;
    }
    lock_free_at_ = now + wait + hold;
    in_contention_ns_ += wait;
    return wait;
  }

  uint64_t submitted_rqs() const { return submitted_rqs_; }
  TickDuration in_contention_ns() const { return in_contention_ns_; }
  uint64_t remote_acquires() const { return remote_acquires_; }
  uint64_t full_rejections() const { return full_rejections_; }
  size_t max_occupancy() const { return max_occupancy_; }

 private:
  QueueId id_;
  int depth_;
  int weight_ = 1;
  RingFifo<NvmeCommand> entries_;
  size_t visible_ = 0;
  Tick lock_free_at_ = 0;
  CoreId last_core_ = kNoCore;
  uint64_t remote_acquires_ = 0;
  uint64_t submitted_rqs_ = 0;
  TickDuration in_contention_ns_;
  uint64_t full_rejections_ = 0;
  size_t max_occupancy_ = 0;
};

class CompletionQueue {
 public:
  CompletionQueue(QueueId id, int depth, CoreId irq_core)
      : id_(id), depth_(depth), irq_core_(irq_core) {}

  QueueId id() const { return id_; }
  int depth() const { return depth_; }
  CoreId irq_core() const { return irq_core_; }
  void set_irq_core(CoreId core) { irq_core_ = core; }

  // Completion dispatch selected by the storage stack (nqreg's third
  // attribute): coalesce_count == 1 is the per-request path (IRQ per CQE,
  // the kernel default); > 1 coalesces until the count or timeout hits
  // (Daredevil's batched path for low-priority NCQs).
  int coalesce_count() const { return coalesce_count_; }
  TickDuration coalesce_timeout() const { return coalesce_timeout_; }
  void SetCoalescing(int count, TickDuration timeout) {
    coalesce_count_ = count > 1 ? count : 1;
    coalesce_timeout_ = timeout;
  }
  bool per_request_irq() const { return coalesce_count_ == 1; }
  // Polled NCQs never raise IRQs; the host driver drains them periodically.
  bool polled() const { return polled_; }
  void set_polled(bool v) { polled_ = v; }

  size_t pending() const { return entries_.size(); }
  bool irq_masked() const { return irq_masked_; }
  void set_irq_masked(bool v) { irq_masked_ = v; }
  bool timer_armed() const { return timer_armed_; }
  void set_timer_armed(bool v) { timer_armed_ = v; }

  void Push(NvmeCompletion cqe) {
    entries_.push_back(cqe);
    ++complete_rqs_;
  }
  NvmeCompletion Pop() {
    DD_CHECK(!entries_.empty()) << "NCQ " << id_ << " drained past its head";
    NvmeCompletion cqe = entries_.front();
    entries_.pop_front();
    return cqe;
  }

  void CountIrq() { ++irqs_; }
  void AddInFlight(int delta) {
    in_flight_rqs_ += delta;
    // More completions reaped than commands submitted against this NCQ.
    DD_CHECK_LE(0, in_flight_rqs_) << "NCQ " << id_ << " in-flight underflow";
  }

  // Counters consumed by nqreg's NCQ merit (Algorithm 2 line 4).
  int64_t in_flight_rqs() const { return in_flight_rqs_; }
  uint64_t complete_rqs() const { return complete_rqs_; }
  uint64_t irqs() const { return irqs_; }

 private:
  QueueId id_;
  int depth_;
  CoreId irq_core_;
  int coalesce_count_ = 1;
  TickDuration coalesce_timeout_{100 * kMicrosecond};
  bool polled_ = false;
  bool irq_masked_ = false;
  bool timer_armed_ = false;
  RingFifo<NvmeCompletion> entries_;
  int64_t in_flight_rqs_ = 0;
  uint64_t complete_rqs_ = 0;
  uint64_t irqs_ = 0;
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_NVME_QUEUES_H_
