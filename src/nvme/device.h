// Simulated NVMe SSD: submission/completion queues, a round-robin command
// arbiter with device-capacity backpressure, a flash backend, namespaces, and
// interrupt generation with optional coalescing.
//
// The device implements the I/O service routine of Figure 1 in the paper:
//   (1) host enqueues to NSQs and rings doorbells,
//   (2) the controller fetches commands, round-robining across armed NSQs,
//   (3) fetched commands are decomposed into 4KB pages serviced by flash,
//   (4) completed commands are posted to the bound NCQ,
//   (5) an IRQ (per-request or coalesced) notifies the host,
//   (6) the driver drains the NCQ.
//
// Backpressure: the controller only fetches a command when its pages fit in
// the device-internal buffer (max_inflight_pages); commands that do not fit
// are skipped this round (small commands slip into free die slots ahead of
// stalled bulky ones, as on real controllers). This makes NSQ occupancy - and
// therefore in-NSQ head-of-line blocking - the dominant queueing effect, which
// is exactly the multi-tenancy issue the paper studies.
#ifndef DAREDEVIL_SRC_NVME_DEVICE_H_
#define DAREDEVIL_SRC_NVME_DEVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "src/core/types.h"
#include "src/fault/fault_plan.h"
#include "src/nvme/command.h"
#include "src/nvme/extent_map.h"
#include "src/nvme/flash.h"
#include "src/nvme/queues.h"
#include "src/sim/clock.h"
#include "src/sim/ring_fifo.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"

namespace daredevil {

class MetricsRegistry;

struct DeviceConfig {
  int nr_nsq = 64;
  int nr_ncq = 64;
  int queue_depth = 1024;

  FlashConfig flash;

  // Controller costs.
  TickDuration cmd_fetch{600};           // fixed fetch cost per command
  TickDuration per_page_decompose{100};  // per-4KB decompose cost
  TickDuration completion_post{200};     // cost to build + post a CQE
  TickDuration flush_exec{10 * kMicrosecond};  // FLUSH execution (cache drain)
  // Commands fetched per NSQ per round-robin visit, times the queue's
  // weight (SubmissionQueue::weight, 1 unless a stack sets one).
  int arb_burst = 4;
  int max_inflight_pages = 256;    // device-internal buffer (pages)

  // Coalescing presets. Drivers apply `driver_*` to every NCQ at attach time
  // (the kernel's default batched completion, §2.1: mild batching that the
  // ISR drains in one pass); stacks opting an NCQ into the heavy batched path
  // (Daredevil's low-priority NCQs) use `coalesce_*`; the per-request path is
  // count == 1.
  int driver_coalesce_count = 4;
  TickDuration driver_coalesce_timeout{4 * kMicrosecond};
  int coalesce_count = 16;
  TickDuration coalesce_timeout{100 * kMicrosecond};

  // Namespace sizes in 4KB pages. Namespaces share the same NQs (NVMe spec).
  std::vector<uint64_t> namespace_pages = {1ULL << 22};  // one 16GiB namespace
};

class Device {
 public:
  // Called in "hardware context" when an IRQ fires for an NCQ; the driver
  // must schedule its ISR (the device masks the vector until IrqDone()).
  using IrqHandler = std::function<void(int ncq_id)>;

  Device(Simulator* sim, const DeviceConfig& config);
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const DeviceConfig& config() const { return config_; }
  int nr_nsq() const { return static_cast<int>(nsqs_.size()); }
  int nr_ncq() const { return static_cast<int>(ncqs_.size()); }
  int num_namespaces() const { return static_cast<int>(ns_base_.size()); }

  // Static NSQ->NCQ binding: NSQ i completes on NCQ (i % nr_ncq).
  int NcqOfNsq(int sqid) const { return sqid % nr_ncq(); }
  // NSQs attached to an NCQ (the leaves under it in nqreg's hierarchy).
  std::vector<int> NsqsOfNcq(int ncq_id) const;

  uint64_t NamespaceBasePage(uint32_t nsid) const { return ns_base_[nsid]; }
  uint64_t NamespacePages(uint32_t nsid) const {
    return config_.namespace_pages[nsid];
  }

  void SetIrqHandler(IrqHandler handler) { irq_handler_ = std::move(handler); }
  // Attaches a tracepoint sink (fetch/complete/irq events). May be null.
  void SetTraceLog(TraceLog* trace) { trace_ = trace; }

  // Attaches the fault-injection plan. Null or *empty* plans detach: an empty
  // plan must be indistinguishable from no plan (the fingerprint contract in
  // ISSUE 5), so the hot paths only ever test `faults_ != nullptr`.
  void SetFaultPlan(FaultPlan* plan) {
    faults_ = (plan != nullptr && !plan->empty()) ? plan : nullptr;
  }
  FaultPlan* fault_plan() { return faults_; }

  // --- Host-side submission path --------------------------------------
  // Returns the contention wait incurred serializing on the NSQ lock
  // (including the remote cacheline penalty for cross-core access).
  TickDuration AcquireSubmitLock(int sqid, TickDuration hold,
                                 CoreId core = kNoCore,
                                 TickDuration remote_penalty = kZeroDuration) {
    return nsqs_[sqid]->AcquireSubmitLock(sim_->now(), hold, core, remote_penalty);
  }
  // Enqueues a command (host memory write). Returns false if the ring is
  // full; the caller must retry after completions free entries.
  bool Enqueue(int sqid, NvmeCommand cmd);
  // Makes enqueued entries visible and kicks the controller.
  void RingDoorbell(int sqid);

  // --- Host-side completion path ---------------------------------------
  // Drains up to `max` completions from an NCQ (driver ISR body).
  std::vector<NvmeCompletion> DrainCompletions(int ncq_id, size_t max);
  // The same drain, appended to a caller-owned batch, so a driver that
  // keeps one batch per NCQ drains without allocating.
  void DrainCompletions(int ncq_id, size_t max,
                        std::vector<NvmeCompletion>* out);
  // Unmasks the NCQ vector; re-raises immediately if entries are pending.
  void IrqDone(int ncq_id);

  // --- Host abort path (NVMe Abort: the watchdog's reclaim primitive) ----
  // Where the aborted command was found — callers only need the fact that
  // the command will never complete, but tests assert the mechanism.
  enum class AbortOutcome {
    kRemovedFromQueue,      // still sitting in the NSQ ring; slot reclaimed
    kAbortedInFlight,       // being serviced; completion suppressed
    kReclaimedDropped,      // had been fault-dropped at fetch; now accounted
    kAbortedAtCompletion,   // between last flash page and CQE post
  };
  // Aborts command `cid` submitted on `sqid`. Wherever the command currently
  // is — NSQ ring, flash service, or the completion-post gap — its CQE is
  // suppressed and the bound NCQ's in-flight count is reclaimed exactly once.
  AbortOutcome AbortCommand(int sqid, uint64_t cid);

  SubmissionQueue& nsq(int i) { return *nsqs_[i]; }
  const SubmissionQueue& nsq(int i) const { return *nsqs_[i]; }
  CompletionQueue& ncq(int i) { return *ncqs_[i]; }
  const CompletionQueue& ncq(int i) const { return *ncqs_[i]; }
  FlashBackend& flash() { return flash_; }
  const FlashBackend& flash() const { return flash_; }

  // Registers the device's controller/flash/queue accounting as gauges
  // ("device.*"). The registry must not outlive the device.
  void RegisterMetrics(MetricsRegistry* registry) const;

  // Queue-depth probes for the StateSampler (pure reads of current state).
  int TotalNsqOccupancy() const;
  int TotalNcqPending() const;

  // Device-wide stats.
  uint64_t commands_fetched() const { return commands_fetched_; }
  uint64_t commands_completed() const { return commands_completed_; }
  Tick fetch_stall_ns() const { return fetch_stall_ns_; }
  int inflight_pages() const { return inflight_pages_; }

  // Fault/error-path stats (all zero without an attached FaultPlan).
  uint64_t commands_errored() const { return commands_errored_; }
  uint64_t commands_dropped() const { return commands_dropped_; }
  uint64_t commands_aborted() const { return commands_aborted_; }
  uint64_t irqs_dropped() const { return irqs_dropped_; }
  uint64_t irqs_delayed() const { return irqs_delayed_; }
  TickDuration injected_stall_ns() const { return injected_stall_ns_; }

  // --- Durability model (DESIGN.md §13) ----------------------------------
  // The device keeps a volatile write cache: every write page lands in the
  // volatile set at fetch time and reaches the persisted snapshot only via a
  // FLUSH barrier, a FUA completion, or (torn) a crash mid-service. This is
  // pure bookkeeping — no events, no metrics keys — so empty-FaultPlan runs
  // stay fingerprint-identical to a build without it.
  //
  // Collapses device state to what durably survived a power loss at the
  // current tick: volatile pages are dropped (prior persisted content, if
  // any, remains visible), torn-marked volatile pages and pages of writes
  // still in flash service persist as *torn* (detectably corrupt, never
  // silently served). Every command fetched and not yet completed then
  // completes with kAborted and persists nothing. Safe to call at any tick;
  // idempotent thereafter.
  void Crash();
  bool crashed() const { return crashed_; }
  // What recovery sees at (nsid, lba) after Crash(). Before a crash this
  // reads the persisted snapshot as-is (volatile pages are not present).
  DD_OBSERVER PersistedPageView PersistedAt(uint32_t nsid, Lba lba) const;
  DD_OBSERVER size_t volatile_page_count() const {
    return static_cast<size_t>(volatile_writes_.pages());
  }
  DD_OBSERVER size_t persisted_page_count() const {
    return static_cast<size_t>(persisted_.pages());
  }
  uint64_t flushes_completed() const { return flushes_completed_; }
  uint64_t flushes_ignored() const { return flushes_ignored_; }
  uint64_t fua_persists() const { return fua_persists_; }

 private:
  // One slot of the in-flight table. A slot is live while pages_remaining
  // is above zero: from the fetch that takes it to the last page-done event.
  struct InflightCommand {
    NvmeCommand cmd;
    uint32_t pages_remaining = 0;
    // Host aborted the command mid-service. Its pages keep occupying the
    // flash pipeline (page events cannot be cancelled) but no CQE is posted.
    bool aborted = false;
  };

  // Collapses a namespace-relative LBA to the device-global page index the
  // flash backend addresses (a deliberately different type: mixing the two
  // address spaces is the unit bug this signature now rejects).
  uint64_t GlobalPage(uint32_t nsid, Lba lba) const {
    return ns_base_[nsid] + lba.value();
  }

  void KickController();
  void ControllerStep();
  // Picks the NSQ to fetch from next (round-robin with burst, skipping heads
  // that exceed remaining device capacity). Returns -1 when nothing is
  // fetchable.
  int SelectNsq();
  // Mirrors nsqs_[sqid]->armed() into armed_words_, and an armed queue's
  // head command size into head_pages_, after any operation that can change
  // doorbell visibility or the visible head (ring, fetch, abort-removal).
  // SelectNsq reads only these two arrays instead of chasing every queue
  // pointer per step.
  void SyncArmed(int sqid) {
    const SubmissionQueue& sq = *nsqs_[static_cast<size_t>(sqid)];
    const uint64_t bit = 1ull << (sqid & 63);
    if (sq.armed()) {
      armed_words_[static_cast<size_t>(sqid) >> 6] |= bit;
      head_pages_[static_cast<size_t>(sqid)] =
          static_cast<int>(sq.PeekVisible().pages);
    } else {
      armed_words_[static_cast<size_t>(sqid) >> 6] &= ~bit;
    }
  }
  bool Armed(int sqid) const {
    return (armed_words_[static_cast<size_t>(sqid) >> 6] >> (sqid & 63)) & 1;
  }
  bool AnyArmed() const {
    for (const uint64_t w : armed_words_) {
      if (w != 0) {
        return true;
      }
    }
    return false;
  }
  void FetchFrom(int sqid);
  // Fetch-delay expiry for the command parked in fetching_. The fetch pipe is
  // single-entry (fetch_busy_), so the scheduled event captures only `this`.
  void FinishFetch();
  // Takes an in-flight slot (the most recently freed one first).
  uint32_t AllocInflight();
  // Slot of the live in-flight command `cid`, or -1. A scan: it runs on the
  // abort path and in invariant checks only.
  int FindInflight(uint64_t cid) const;
  void OnPageDone(uint32_t slot);
  void PostCompletion(const InflightCommand& ic);
  // Completion-post delay expiry: posts the front of completion_pending_.
  // The post delay is one constant, so FIFO order is event order.
  void PostPendingCompletion();
  void RaiseIrq(int ncq_id);
  void ArmCoalesceTimer(int ncq_id);

  Simulator* sim_;
  DeviceConfig config_;
  FlashBackend flash_;
  std::vector<std::unique_ptr<SubmissionQueue>> nsqs_;
  std::vector<std::unique_ptr<CompletionQueue>> ncqs_;
  std::vector<uint64_t> ns_base_;
  IrqHandler irq_handler_;
  TraceLog* trace_ = nullptr;
  FaultPlan* faults_ = nullptr;  // null = fault-free (the common case)

  // Controller state.
  bool fetch_busy_ = false;
  // The command occupying the single-entry fetch pipe (valid while
  // fetch_busy_) and completed commands awaiting the completion-post delay:
  // parked in members/rings so their events stay within EventFn's inline
  // capture budget.
  NvmeCommand fetching_;
  RingFifo<InflightCommand> completion_pending_;
  bool stalled_ = false;
  Tick stall_since_ = 0;
  // Smallest armed head (in pages) the last failed SelectNsq scan saw. While
  // stalled, a kick whose free capacity is still below it would fail the same
  // scan, so it skips it. Doorbells and abort removals change the armed heads
  // and reset it to 0, which never skips a scan that could succeed.
  int stall_min_head_pages_ = 0;
  // One bit per NSQ, set iff armed() (kept in sync by SyncArmed).
  std::vector<uint64_t> armed_words_;
  // Per NSQ: pages of the visible head command, valid while its armed bit is
  // set (kept in sync by SyncArmed).
  std::vector<int> head_pages_;
  int rr_next_ = 0;      // next NSQ for round-robin scan
  int current_sq_ = -1;  // NSQ currently holding the burst
  int burst_left_ = 0;   // fetches left in it: arb_burst x its weight
  int inflight_pages_ = 0;
  // The in-flight table: commands in flash service (or FLUSH execution),
  // addressed by slot. FinishFetch takes a slot and the command's page-done
  // events carry it, so the per-page path is an index, not a lookup. Freed
  // slots are reused last-in first-out. Nothing on the simulated path walks
  // the table in slot order: AbortCommand matches by cid and Crash() sorts
  // by cid.
  std::vector<InflightCommand> inflight_;
  std::vector<uint32_t> inflight_free_;

  uint64_t commands_fetched_ = 0;
  uint64_t commands_completed_ = 0;
  Tick fetch_stall_ns_ = 0;

  // --- Fault/error-path state (untouched when faults_ == nullptr) -------
  // Commands the fault layer discarded at fetch, by cid: the host abort must
  // find them to reclaim the NCQ in-flight slot exactly once. Ordered set —
  // this is simulation state on the abort path.
  std::set<uint64_t> dropped_cids_;
  // Commands aborted in the completion-post gap (after the last flash page
  // freed the command's inflight_ slot, before PostCompletion ran):
  // PostCompletion consumes the cid and suppresses the CQE.
  std::set<uint64_t> aborted_cids_;
  uint64_t commands_errored_ = 0;
  uint64_t commands_dropped_ = 0;
  uint64_t commands_aborted_ = 0;
  uint64_t irqs_dropped_ = 0;
  uint64_t irqs_delayed_ = 0;
  TickDuration injected_stall_ns_;

  // --- Durability model state (always-on, pure bookkeeping) --------------
  struct VolatilePage {
    uint64_t cid = 0;
    bool torn = false;            // kTornWrite fired on this page's program
    bool reorder_escape = false;  // kWriteReorder: skips the next flush
    bool operator==(const VolatilePage&) const = default;
  };
  struct PersistedPage {
    uint64_t cid = 0;
    bool torn = false;
  };
  // Persists every volatile page (except reorder escapees, whose escape is
  // consumed) — the successful-FLUSH barrier action.
  void PersistBarrier();
  // Persists the pages of one (FUA) write command out of the volatile set.
  void PersistPages(const NvmeCommand& cmd);
  // Keyed by device-global page, one node per written range (a write
  // command's pages share a value unless a per-page hazard split them).
  ExtentMap<VolatilePage> volatile_writes_;
  ExtentMap<PersistedPage> persisted_;
  bool crashed_ = false;
  uint64_t flushes_completed_ = 0;
  uint64_t flushes_ignored_ = 0;  // kFlushIgnore injections that landed
  uint64_t fua_persists_ = 0;
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_NVME_DEVICE_H_
