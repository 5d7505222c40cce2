// Abstract storage stack interface plus the driver-side plumbing shared by
// every stack implementation (submission work accounting, NSQ lock handling,
// doorbell policies, the interrupt service routine, and completion delivery).
#ifndef DAREDEVIL_SRC_STACK_STORAGE_STACK_H_
#define DAREDEVIL_SRC_STACK_STORAGE_STACK_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/invariant.h"
#include "src/fault/fault_plan.h"
#include "src/nvme/device.h"
#include "src/sim/cpu.h"
#include "src/sim/engine/timer_handle.h"
#include "src/stack/io_scheduler.h"
#include "src/stack/request.h"
#include "src/stats/metrics.h"

namespace daredevil {

class RequestTimelineLog;  // src/stats/trace_export.h

// Table 1's comparison factors, exposed as queryable capabilities.
struct StackCapabilities {
  bool hardware_independence = false;  // Factor 1
  bool nq_exploitation = false;        // Factor 2
  bool cross_core_autonomy = false;    // Factor 3
  bool multi_namespace_support = false;  // Factor 4
};

// CPU cost model of the kernel I/O path. Every field is a span of simulated
// time, so the catalog is TickDuration-typed: a time-point can no longer be
// charged as work by accident.
struct StackCosts {
  TickDuration syscall{1 * kMicrosecond};  // user->kernel crossing (workload side)
  TickDuration per_page_user{800};         // userspace buffer prep per 4KB page
  TickDuration submit_kernel{1200};        // block layer submit work per request
  TickDuration per_page_kernel{400};       // pinning/DMA mapping per 4KB page
  TickDuration nsq_lock_hold{150};         // tail-doorbell critical section
  TickDuration nsq_remote_access{400};     // doorbell cacheline bounce, cross-core
  TickDuration isr_base{1500};             // fixed ISR entry cost
  TickDuration isr_per_cqe{400};           // per completion processed in the ISR
  TickDuration complete_delivery{700};     // completion delivery to userspace
  TickDuration poll_base{400};             // cost of one (possibly empty) NCQ poll
  TickDuration requeue_backoff{50 * kMicrosecond};  // retry delay on a full NSQ
};

// Timeout/retry policy of the driver's error recovery (the nvme driver's
// timeout handler + requeue logic). Only active while a non-empty FaultPlan
// is attached — the fault-free hot path never arms a watchdog.
struct FaultRecoveryPolicy {
  // Per-attempt deadline: when a submitted command has not completed within
  // this span, the watchdog polls the bound NCQ (lost-IRQ recovery) and, if
  // the command is genuinely stuck, aborts it.
  TickDuration timeout{20 * kMillisecond};
  // Attempts beyond the first (0 = fail on the first timeout/error CQE).
  int max_retries = 3;
  // Exponential backoff before re-submitting: backoff * 2^(attempt-1),
  // capped at backoff_cap.
  TickDuration backoff{200 * kMicrosecond};
  TickDuration backoff_cap{10 * kMillisecond};
};

class StorageStack {
 public:
  StorageStack(Machine* machine, Device* device, const StackCosts& costs);
  virtual ~StorageStack() = default;
  StorageStack(const StorageStack&) = delete;
  StorageStack& operator=(const StorageStack&) = delete;

  virtual std::string_view name() const = 0;
  virtual StackCapabilities capabilities() const = 0;

  // Display label for an NSQ's trace track. Stacks that give queues a role
  // (blk-mq's per-core queues, Daredevil's priority groups) override this so
  // the exported timeline reads in the stack's own vocabulary.
  virtual std::string NsqTrackLabel(int nsq) const;

  // Lifecycle notifications from the workload layer.
  virtual void OnTenantStart(Tenant* tenant);
  virtual void OnTenantExit(Tenant* tenant);
  // The tenant's ionice value changed (tenant->ionice already updated).
  virtual void OnIoniceChange(Tenant* tenant);
  // The tenant moved cores (tenant->core already updated). Stacks that track
  // per-core state (bitmaps, steering tables) refresh it here.
  virtual void OnTenantMigrated(Tenant* tenant, int old_core);

  // Issues a request: posts the kernel submission work on rq->submit_core,
  // then routes, serializes on the NSQ lock, enqueues and rings/batches the
  // doorbell. Callable from any context.
  void SubmitAsync(Request* rq);

  // Enables the block layer's I/O splitting mechanism (§2.3): requests larger
  // than `pages` are decomposed into chunks that traverse the submission path
  // independently. The split chunks still occupy the same total NQ space (in
  // more entries), so - as the paper argues - splitting does NOT resolve the
  // multi-tenancy issue (see bench_ablation_splitting). 0 disables.
  void SetSplitThreshold(uint32_t pages) { split_threshold_ = pages; }
  uint32_t split_threshold() const { return split_threshold_; }
  uint64_t requests_split() const { return requests_split_; }

  // Switches an NCQ to polled completion: the driver drains it every
  // `interval` on its (former IRQ) core instead of taking interrupts.
  void EnablePolledCompletion(int ncq, TickDuration interval);

  // --- Fault injection / error recovery ---------------------------------
  // Attaches the fault plan to the device and arms the host-side timeout
  // watchdog. Null or empty plans detach both (the fingerprint contract:
  // an empty plan is indistinguishable from no plan).
  void SetFaultPlan(FaultPlan* plan);
  void SetFaultRecovery(const FaultRecoveryPolicy& policy) {
    recovery_ = policy;
  }
  const FaultRecoveryPolicy& fault_recovery() const { return recovery_; }
  bool watchdog_enabled() const { return watchdog_enabled_; }

  // Per-tenant error accounting (key: tenant id; kNoTenant's value for
  // tenant-less requests). Empty in fault-free runs.
  struct TenantErrorStats {
    uint64_t retries = 0;   // re-submissions (after error CQE or abort)
    uint64_t aborts = 0;    // watchdog aborts of stuck commands
    uint64_t timeouts = 0;  // watchdog expirations (incl. recovered ones)
    uint64_t errors = 0;    // completions delivered with status != kOk
  };
  const std::map<TenantId, TenantErrorStats>& tenant_errors() const {
    return tenant_errors_;
  }

  // Installs a per-NSQ block-layer I/O scheduler with a bounded device
  // dispatch window (outstanding commands per NSQ); excess requests queue in
  // the scheduler, which picks dispatch order. kNone restores direct
  // dispatch.
  void EnableIoScheduler(IoSchedulerKind kind, int dispatch_window = 32);
  IoSchedulerKind io_scheduler_kind() const { return sched_kind_; }
  uint64_t scheduler_queued() const { return sched_queued_; }

  // Registers this stack's counters as gauges ("stack.*"); subclasses extend
  // with their own namespaces (e.g. "blkswitch.*", "daredevil.*"). The
  // registry must not outlive the stack.
  virtual void RegisterMetrics(MetricsRegistry* registry) const;

  // Stats.
  uint64_t requests_submitted() const { return requests_submitted_; }
  uint64_t requests_completed() const { return requests_completed_; }
  uint64_t requeues() const { return requeues_; }
  uint64_t cross_core_completions() const { return cross_core_completions_; }
  TickDuration submission_lock_wait_ns() const {
    return submission_lock_wait_ns_;
  }
  // Doorbell accounting: rings issued and requests made visible per ring
  // (rqs/rings = mean batch size; > 1 only with batched doorbell policies).
  uint64_t doorbells_rung() const { return doorbells_rung_; }
  uint64_t doorbell_rqs_rung() const { return doorbell_rqs_rung_; }
  // Requests sitting enqueued-but-unrung under batched doorbell policies
  // right now (StateSampler probe).
  int PendingDoorbells() const;

  Machine& machine() { return *machine_; }
  Device& device() { return *device_; }
  const StackCosts& costs() const { return costs_; }

  // Attaches a tracepoint sink for block-layer events (also forwarded to the
  // device). May be null.
  void SetTraceLog(TraceLog* trace);
  TraceLog* trace() { return trace_; }

  // Attaches the per-request timeline capture: every completed request's
  // stage chain is copied into the log at delivery (requests are pooled and
  // reused, so delivery is the last moment the stamps are alive). May be
  // null. Read-only observability - never affects simulated time.
  void SetTimelineLog(RequestTimelineLog* log) { timeline_ = log; }
  RequestTimelineLog* timeline() { return timeline_; }

  // The lifecycle verifier fed by the submission/doorbell/completion paths.
  // Only populated when DAREDEVIL_INVARIANTS is compiled in (the feeding
  // calls sit behind DD_CHECK); exposed for tests and diagnostics.
  const LifecycleChecker& lifecycle() const { return lifecycle_; }

  // Doorbell behaviour for an NSQ (public so tests and tools can configure
  // policies through subclasses exposing SetDoorbellPolicy).
  struct DoorbellPolicy {
    bool batched = false;
    int batch = 8;
    TickDuration timeout{100 * kMicrosecond};
  };

 protected:
  // --- Strategy points implemented by concrete stacks -------------------
  // Returns the NSQ the request must be enqueued on. Runs in kernel context
  // on rq->submit_core.
  virtual int RouteRequest(Request* rq) = 0;
  // Extra CPU the routing decision costs (charged with the submit work).
  virtual TickDuration RoutingCost(const Request& rq) const {
    (void)rq;
    return kZeroDuration;
  }
  // Hook when a completion is handed back (runs on the IRQ core, before the
  // cross-core delivery to the tenant).
  virtual void OnRequestCompleted(Request* rq) { (void)rq; }

  // --- Services for subclasses ------------------------------------------
  void SetDoorbellPolicy(int nsq, const DoorbellPolicy& policy);
  // Selects per-request (true) vs coalesced (false) completion on an NCQ
  // (coalesced uses the device config's count/timeout).
  void SetCompletionPath(int ncq, bool per_request);
  // Spreads NCQ IRQ vectors across cores (ncq i -> core i % cores).
  void AssignIrqCoresRoundRobin();

 public:
  // Fault-path stats (all zero in fault-free runs).
  uint64_t timeouts() const { return timeouts_; }
  uint64_t fault_retries() const { return fault_retries_; }
  uint64_t aborts() const { return aborts_; }
  uint64_t failed_requests() const { return failed_requests_; }
  uint64_t error_completions() const { return error_completions_; }
  uint64_t watchdog_recovered() const { return watchdog_recovered_; }
  TickDuration timeout_latency_ns() const { return timeout_latency_ns_; }

 private:
  void SubmitSplit(Request* rq);
  void DispatchOrSchedule(Request* rq, int nsq);
  void PumpScheduler(int nsq);
  void EnqueueLocked(Request* rq, int nsq);
  void RingOrBatchDoorbell(int nsq);
  void OnDeviceIrq(int ncq_id);
  void IsrBody(int ncq_id);
  void PollBody(int ncq_id, TickDuration interval);
  void DeliverCompletion(const NvmeCompletion& cqe, int ncq_id, int irq_core);

  // --- Timeout watchdog / retry machinery (fault runs only) --------------
  void ArmWatchdog(Request* rq);
  // Cancels the armed deadline (if any) and drops the outstanding entry.
  void DisarmWatchdog(uint64_t id);
  void OnWatchdogFire(uint64_t id, uint16_t attempt);
  void EscalateTimeout(Request* rq);
  // Re-submits a failed attempt after backoff under a fresh attempt cid.
  void ScheduleRetry(Request* rq);
  void FailRequest(Request* rq, IoStatus status);
  TickDuration BackoffFor(uint16_t attempt) const;
  TenantErrorStats& ErrorStatsFor(const Request& rq);

  Machine* machine_;
  Device* device_;
  StackCosts costs_;
  TraceLog* trace_ = nullptr;
  RequestTimelineLog* timeline_ = nullptr;

  struct DoorbellState {
    DoorbellPolicy policy;
    int pending = 0;
    bool timer_armed = false;
  };
  std::vector<DoorbellState> doorbells_;
  // Per NCQ: the completions IsrBody drained, awaiting delivery on the IRQ
  // core. Reused across interrupts, so the ISR allocates nothing once each
  // batch has reached its high-water size.
  std::vector<std::vector<NvmeCompletion>> isr_batches_;

  struct SplitJob {
    Request* parent = nullptr;
    int remaining = 0;
    std::vector<std::unique_ptr<Request>> children;
  };
  // Ordered by parent id: split bookkeeping lives on the completion path,
  // where unordered iteration order would be seed-dependent nondeterminism.
  std::map<uint64_t, std::unique_ptr<SplitJob>> splits_;
  uint32_t split_threshold_ = 0;
  uint64_t requests_split_ = 0;

  struct SchedState {
    std::unique_ptr<IoScheduler> sched;
    int outstanding = 0;
  };
  std::vector<SchedState> sched_;  // per NSQ; empty unless a scheduler is set
  IoSchedulerKind sched_kind_ = IoSchedulerKind::kNone;
  int sched_window_ = 32;
  uint64_t sched_queued_ = 0;

  LifecycleChecker lifecycle_;

  uint64_t requests_submitted_ = 0;
  uint64_t requests_completed_ = 0;
  uint64_t requeues_ = 0;
  uint64_t cross_core_completions_ = 0;
  TickDuration submission_lock_wait_ns_;
  uint64_t doorbells_rung_ = 0;
  uint64_t doorbell_rqs_rung_ = 0;

  // --- Fault-recovery state (untouched unless a FaultPlan is attached) ---
  // Outstanding watchdog entries keyed by request id. `timer` is the armed
  // deadline, cancelled outright when the attempt completes or is aborted
  // (no epoch-guarded dead callbacks left in the queue). `attempt` still
  // guards the fire path: re-arming a retried request replaces the entry,
  // and a fire racing the recovery poll must see the current attempt.
  struct Outstanding {
    Request* rq = nullptr;
    uint16_t attempt = 0;
    Tick armed_at = 0;
    TimerHandle timer;
  };
  std::map<uint64_t, Outstanding> outstanding_;
  FaultRecoveryPolicy recovery_;
  bool watchdog_enabled_ = false;
  // Retried attempts need a device cid distinct from every live id (the
  // aborted attempt's cid may still sit in the device as a tombstone), so
  // they draw from a counter with bit 63 set - workload ids never do.
  uint64_t next_attempt_cid_ = 0;
  std::map<TenantId, TenantErrorStats> tenant_errors_;
  uint64_t timeouts_ = 0;
  uint64_t fault_retries_ = 0;
  uint64_t aborts_ = 0;
  uint64_t failed_requests_ = 0;
  uint64_t error_completions_ = 0;
  uint64_t watchdog_recovered_ = 0;
  TickDuration timeout_latency_ns_;
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_STACK_STORAGE_STACK_H_
