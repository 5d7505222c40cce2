#include "src/stack/storage_stack.h"

#include "src/stats/trace_export.h"

namespace daredevil {

std::string StorageStack::NsqTrackLabel(int nsq) const {
  return "NSQ " + std::to_string(nsq);
}

int StorageStack::PendingDoorbells() const {
  int pending = 0;
  for (const DoorbellState& db : doorbells_) {
    pending += db.pending;
  }
  return pending;
}

StorageStack::StorageStack(Machine* machine, Device* device, const StackCosts& costs)
    : machine_(machine), device_(device), costs_(costs) {
  doorbells_.resize(static_cast<size_t>(device->nr_nsq()));
  isr_batches_.resize(static_cast<size_t>(device->nr_ncq()));
  AssignIrqCoresRoundRobin();
  // The kernel default completes requests in (mild) batches (§2.1).
  for (int i = 0; i < device_->nr_ncq(); ++i) {
    device_->ncq(i).SetCoalescing(device_->config().driver_coalesce_count,
                                  device_->config().driver_coalesce_timeout);
  }
  device_->SetIrqHandler([this](int ncq_id) { OnDeviceIrq(ncq_id); });
}

void StorageStack::OnTenantStart(Tenant* tenant) { (void)tenant; }
void StorageStack::OnTenantExit(Tenant* tenant) { (void)tenant; }
void StorageStack::OnIoniceChange(Tenant* tenant) { (void)tenant; }
void StorageStack::OnTenantMigrated(Tenant* tenant, int old_core) {
  (void)tenant;
  (void)old_core;
}

void StorageStack::RegisterMetrics(MetricsRegistry* registry) const {
  const StorageStack* s = this;
  registry->RegisterGauge("stack.requests_submitted", [s]() {
    return static_cast<double>(s->requests_submitted());
  });
  registry->RegisterGauge("stack.requests_completed", [s]() {
    return static_cast<double>(s->requests_completed());
  });
  registry->RegisterGauge("stack.requeues", [s]() {
    return static_cast<double>(s->requeues());
  });
  registry->RegisterGauge("stack.cross_core_completions", [s]() {
    return static_cast<double>(s->cross_core_completions());
  });
  registry->RegisterGauge("stack.lock_wait_ns", [s]() {
    return static_cast<double>(s->submission_lock_wait_ns().ticks());
  });
  registry->RegisterGauge("stack.requests_split", [s]() {
    return static_cast<double>(s->requests_split());
  });
  registry->RegisterGauge("stack.scheduler_queued", [s]() {
    return static_cast<double>(s->scheduler_queued());
  });
  registry->RegisterGauge("stack.doorbells_rung", [s]() {
    return static_cast<double>(s->doorbells_rung());
  });
  registry->RegisterGauge("stack.doorbell_batch_mean", [s]() {
    return s->doorbells_rung() > 0
               ? static_cast<double>(s->doorbell_rqs_rung()) /
                     static_cast<double>(s->doorbells_rung())
               : 0.0;
  });
  // Registered only when a fault plan is armed: the metrics snapshot is part
  // of the fingerprint, and fault-free runs must hash identically to the
  // pre-fault simulator.
  if (watchdog_enabled_) {
    registry->RegisterGauge("stack.faults.timeouts", [s]() {
      return static_cast<double>(s->timeouts());
    });
    registry->RegisterGauge("stack.faults.retries", [s]() {
      return static_cast<double>(s->fault_retries());
    });
    registry->RegisterGauge("stack.faults.aborts", [s]() {
      return static_cast<double>(s->aborts());
    });
    registry->RegisterGauge("stack.faults.failed_requests", [s]() {
      return static_cast<double>(s->failed_requests());
    });
    registry->RegisterGauge("stack.faults.error_completions", [s]() {
      return static_cast<double>(s->error_completions());
    });
    registry->RegisterGauge("stack.faults.watchdog_recovered", [s]() {
      return static_cast<double>(s->watchdog_recovered());
    });
    registry->RegisterGauge("stack.faults.timeout_latency_ns", [s]() {
      return static_cast<double>(s->timeout_latency_ns().ticks());
    });
  }
}

void StorageStack::AssignIrqCoresRoundRobin() {
  for (int i = 0; i < device_->nr_ncq(); ++i) {
    device_->ncq(i).set_irq_core(CoreId{i % machine_->num_cores()});
  }
}

void StorageStack::SetTraceLog(TraceLog* trace) {
  trace_ = trace;
  device_->SetTraceLog(trace);
}

void StorageStack::EnableIoScheduler(IoSchedulerKind kind, int dispatch_window) {
  sched_kind_ = kind;
  sched_window_ = dispatch_window > 0 ? dispatch_window : 1;
  sched_.clear();
  if (kind == IoSchedulerKind::kNone) {
    return;
  }
  sched_.resize(static_cast<size_t>(device_->nr_nsq()));
  for (auto& state : sched_) {
    state.sched = MakeIoScheduler(kind);
  }
}

void StorageStack::SetDoorbellPolicy(int nsq, const DoorbellPolicy& policy) {
  doorbells_[static_cast<size_t>(nsq)].policy = policy;
}

void StorageStack::SetCompletionPath(int ncq, bool per_request) {
  if (per_request) {
    device_->ncq(ncq).SetCoalescing(1, device_->config().coalesce_timeout);
  } else {
    device_->ncq(ncq).SetCoalescing(device_->config().coalesce_count,
                                    device_->config().coalesce_timeout);
  }
}

void StorageStack::SubmitAsync(Request* rq) {
  if (split_threshold_ > 0 && rq->pages > split_threshold_) {
    SubmitSplit(rq);
    return;
  }
  // In-flight uniqueness: a request must complete before its id is reused
  // (split parents never reach the device and are tracked via children).
  DD_CHECK(lifecycle_.OnSubmit(*rq, machine_->now()))
      << lifecycle_.last_violation();
  const TickDuration work = costs_.submit_kernel +
                            static_cast<Tick>(rq->pages) * costs_.per_page_kernel +
                            RoutingCost(*rq);
  machine_->Post(rq->submit_core, WorkLevel::kKernel, work, [this, rq]() {
    rq->t.submit = machine_->now();
    if (trace_ != nullptr) {
      trace_->Record(machine_->now(), TraceCategory::kSubmit, rq->id,
                     rq->submit_core, rq->pages);
    }
    const int nsq = RouteRequest(rq);
    DD_CHECK(nsq >= 0 && nsq < device_->nr_nsq())
        << "rq=" << rq->id << " routed to NSQ " << nsq << " of "
        << device_->nr_nsq() << " at tick " << machine_->now();
    rq->routed_nsq = nsq;
    if (trace_ != nullptr) {
      trace_->Record(machine_->now(), TraceCategory::kRoute, rq->id, nsq,
                     rq->tenant != nullptr && rq->tenant->IsLatencySensitive() ? 1
                                                                               : 0);
    }
    if (sched_kind_ != IoSchedulerKind::kNone) {
      // I/O-scheduler path: queue in the per-NSQ scheduler; the dispatch
      // window pulls requests out in scheduler order.
      DispatchOrSchedule(rq, nsq);
      return;
    }
    const TickDuration wait = device_->AcquireSubmitLock(
        nsq, costs_.nsq_lock_hold, CoreId{rq->submit_core},
        costs_.nsq_remote_access);
    submission_lock_wait_ns_ += wait;
    if (wait > kZeroDuration) {
      // Spin for our turn at the NSQ tail (cross-core contention, §5.1).
      machine_->Post(rq->submit_core, WorkLevel::kKernel, wait,
                     [this, rq, nsq]() { EnqueueLocked(rq, nsq); });
    } else {
      EnqueueLocked(rq, nsq);
    }
  });
}

void StorageStack::DispatchOrSchedule(Request* rq, int nsq) {
  SchedState& state = sched_[static_cast<size_t>(nsq)];
  state.sched->Add(rq, machine_->now());
  ++sched_queued_;
  PumpScheduler(nsq);
}

void StorageStack::PumpScheduler(int nsq) {
  SchedState& state = sched_[static_cast<size_t>(nsq)];
  while (state.outstanding < sched_window_) {
    Request* rq = state.sched->Dispatch(machine_->now());
    if (rq == nullptr) {
      return;
    }
    ++state.outstanding;
    const TickDuration wait = device_->AcquireSubmitLock(
        nsq, costs_.nsq_lock_hold, CoreId{rq->submit_core},
        costs_.nsq_remote_access);
    submission_lock_wait_ns_ += wait;
    EnqueueLocked(rq, nsq);
  }
}

void StorageStack::SubmitSplit(Request* rq) {
  // Decompose into <= split_threshold_ chunks; each chunk traverses the full
  // submission path. The parent completes when the last chunk does.
  ++requests_split_;
  auto job = std::make_unique<SplitJob>();
  job->parent = rq;
  SplitJob* job_ptr = job.get();
  uint64_t child_seq = 0;
  for (uint32_t offset = 0; offset < rq->pages; offset += split_threshold_) {
    auto child = std::make_unique<Request>();
    // Derive a collision-free child id: parent ids occupy the high bits
    // (tenant << 32 | counter), so shifting leaves room for the chunk index.
    child->id = (rq->id << 8) | (++child_seq);
    DD_CHECK(child_seq < 256) << "rq=" << rq->id << " split into too many chunks";
    child->tenant = rq->tenant;
    child->nsid = rq->nsid;
    child->lba = rq->lba + offset;
    child->pages = std::min(split_threshold_, rq->pages - offset);
    child->is_write = rq->is_write;
    child->is_sync = rq->is_sync;
    child->is_meta = rq->is_meta;
    child->is_fua = rq->is_fua;
    child->submit_core = rq->submit_core;
    child->t.issue = rq->t.issue;
    child->on_complete = [this, job_ptr](Request* done_child) {
      Request* parent = job_ptr->parent;
      parent->routed_nsq = done_child->routed_nsq;
      if (done_child->status != IoStatus::kOk) {
        // Any failed chunk fails the parent (first failure wins).
        if (parent->status == IoStatus::kOk) {
          parent->status = done_child->status;
        }
      }
      if (--job_ptr->remaining == 0) {
        parent->t.complete = machine_->now();
        // Defer the job teardown one event: this closure is owned by one of
        // the job's children, so destroying the job here would destroy the
        // currently-executing function object.
        const uint64_t parent_id = parent->id;
        machine_->sim().After(kZeroDuration,
                              [this, parent_id]() { splits_.erase(parent_id); });
        if (parent->on_complete) {
          parent->on_complete(parent);
        }
      }
    };
    job->children.push_back(std::move(child));
  }
  job->remaining = static_cast<int>(job->children.size());
  auto [it, inserted] = splits_.emplace(rq->id, std::move(job));
  DD_CHECK(inserted) << "duplicate in-flight request id " << rq->id
                     << " in split path at tick " << machine_->now();
  for (auto& child : it->second->children) {
    SubmitAsync(child.get());
  }
}

void StorageStack::EnqueueLocked(Request* rq, int nsq) {
  // Stamped before the command copies the timeline: delivery replaces the
  // request's timeline with the completion's. A ring-full requeue re-stamps
  // it on the retry.
  rq->t.nsq_enqueue = machine_->now();
  NvmeCommand cmd;
  // Retried attempts carry a fresh cid (bit 63 set): the aborted attempt's
  // cid may still live in the device as a tombstone awaiting its CQE.
  cmd.cid = rq->attempt_cid != 0 ? rq->attempt_cid : rq->id;
  cmd.nsid = rq->nsid;
  cmd.lba = rq->lba;
  cmd.pages = rq->pages;
  cmd.is_write = rq->is_write;
  cmd.is_flush = rq->is_flush;
  cmd.fua = rq->is_fua;
  cmd.cookie = rq;
  cmd.t = rq->t;

  if (!device_->Enqueue(nsq, cmd)) {
    // Ring full: back off and retry (blk-mq's BLK_STS_RESOURCE requeue).
    ++requeues_;
    machine_->sim().After(costs_.requeue_backoff, [this, rq, nsq]() {
      machine_->Post(rq->submit_core, WorkLevel::kKernel,
                     TickDuration{costs_.submit_kernel.ticks() / 2},
                     [this, rq, nsq]() { EnqueueLocked(rq, nsq); });
    });
    return;
  }
  ++requests_submitted_;
  if (watchdog_enabled_) {
    ArmWatchdog(rq);
  }
  RingOrBatchDoorbell(nsq);
}

void StorageStack::RingOrBatchDoorbell(int nsq) {
  // Doorbell tails (cumulative submissions made visible) must be monotone.
  DD_CHECK(lifecycle_.OnDoorbell(nsq, device_->nsq(nsq).submitted_rqs()))
      << lifecycle_.last_violation();
  DoorbellState& db = doorbells_[static_cast<size_t>(nsq)];
  if (!db.policy.batched) {
    if (trace_ != nullptr) {
      trace_->Record(machine_->now(), TraceCategory::kDoorbell, 0, nsq, 1);
    }
    ++doorbells_rung_;
    ++doorbell_rqs_rung_;
    device_->RingDoorbell(nsq);
    return;
  }
  // Postpone notifying the controller until a batch accumulated (§5.3,
  // SLA-aware submission dispatching for low-priority NSQs).
  ++db.pending;
  if (db.pending >= db.policy.batch) {
    if (trace_ != nullptr) {
      trace_->Record(machine_->now(), TraceCategory::kDoorbell, 0, nsq,
                     db.pending);
    }
    ++doorbells_rung_;
    doorbell_rqs_rung_ += static_cast<uint64_t>(db.pending);
    db.pending = 0;
    device_->RingDoorbell(nsq);
    return;
  }
  if (!db.timer_armed) {
    db.timer_armed = true;
    machine_->sim().After(db.policy.timeout, [this, nsq]() {
      DoorbellState& state = doorbells_[static_cast<size_t>(nsq)];
      state.timer_armed = false;
      if (state.pending > 0) {
        if (trace_ != nullptr) {
          trace_->Record(machine_->now(), TraceCategory::kDoorbell, 0, nsq,
                         state.pending);
        }
        ++doorbells_rung_;
        doorbell_rqs_rung_ += static_cast<uint64_t>(state.pending);
        state.pending = 0;
        device_->RingDoorbell(nsq);
      }
    });
  }
}

void StorageStack::EnablePolledCompletion(int ncq, TickDuration interval) {
  device_->ncq(ncq).set_polled(true);
  machine_->sim().After(interval, [this, ncq, interval]() { PollBody(ncq, interval); });
}

void StorageStack::PollBody(int ncq_id, TickDuration interval) {
  const int core = device_->ncq(ncq_id).irq_core().value();
  machine_->Post(core, WorkLevel::kKernel, costs_.poll_base, [this, ncq_id, interval]() {
    auto cqes = device_->DrainCompletions(
        ncq_id, static_cast<size_t>(device_->config().queue_depth));
    const int poll_core = device_->ncq(ncq_id).irq_core().value();
    if (!cqes.empty()) {
      const TickDuration work =
          static_cast<Tick>(cqes.size()) * costs_.isr_per_cqe;
      machine_->Post(poll_core, WorkLevel::kKernel, work,
                     [this, ncq_id, poll_core, cqes = std::move(cqes)]() {
                       for (const auto& cqe : cqes) {
                         DeliverCompletion(cqe, ncq_id, poll_core);
                       }
                     });
    }
    machine_->sim().After(interval,
                          [this, ncq_id, interval]() { PollBody(ncq_id, interval); });
  });
}

void StorageStack::OnDeviceIrq(int ncq_id) {
  const int core = device_->ncq(ncq_id).irq_core().value();
  machine_->Post(core, WorkLevel::kIrq, costs_.isr_base,
                 [this, ncq_id]() { IsrBody(ncq_id); });
}

void StorageStack::IsrBody(int ncq_id) {
  // The NCQ's vector stays masked from the IRQ (or its delayed delivery)
  // until IrqDone, so at most one batch per NCQ is ever in flight. Were that
  // broken in a build without invariants, the drain appends: the earlier
  // CQEs would be delivered with this batch, not lost.
  std::vector<NvmeCompletion>& batch = isr_batches_[static_cast<size_t>(ncq_id)];
  DD_CHECK(batch.empty()) << "ISR for NCQ " << ncq_id
                          << " while its previous batch is undelivered";
  device_->DrainCompletions(
      ncq_id, static_cast<size_t>(device_->config().queue_depth), &batch);
  const int irq_core = device_->ncq(ncq_id).irq_core().value();
  if (batch.empty()) {
    device_->IrqDone(ncq_id);
    return;
  }
  // Charge per-CQE processing, then deliver and unmask.
  const TickDuration work = static_cast<Tick>(batch.size()) * costs_.isr_per_cqe;
  machine_->Post(irq_core, WorkLevel::kIrq, work, [this, ncq_id, irq_core]() {
    std::vector<NvmeCompletion>& cqes = isr_batches_[static_cast<size_t>(ncq_id)];
    for (const auto& cqe : cqes) {
      DeliverCompletion(cqe, ncq_id, irq_core);
    }
    cqes.clear();
    device_->IrqDone(ncq_id);
  });
}

void StorageStack::DeliverCompletion(const NvmeCompletion& cqe, int ncq_id,
                                     int irq_core) {
  auto* rq = static_cast<Request*>(cqe.cookie);
  DD_CHECK(rq != nullptr) << "CQE cid=" << cqe.cid << " carries no request";
  // Copy the stage timeline (the host stamps rode through the device
  // unchanged) and the completion status onto the request.
  rq->status = cqe.status;
  rq->t = cqe.t;
  // Lifecycle validation at completion: monotone stage chain, no double
  // completion, and the CQE must come back on the NSQ the request was routed
  // to (via that NSQ's statically bound NCQ).
  DD_CHECK(lifecycle_.OnComplete(*rq, machine_->now(), cqe.sqid, ncq_id,
                                 device_->NcqOfNsq(cqe.sqid)))
      << lifecycle_.last_violation();
  if (watchdog_enabled_) {
    // The attempt completed: cancel the armed deadline so no dead watchdog
    // callback lingers in the event queue.
    DisarmWatchdog(rq->id);
  }
  ++requests_completed_;
  if (sched_kind_ != IoSchedulerKind::kNone && rq->routed_nsq >= 0) {
    SchedState& state = sched_[static_cast<size_t>(rq->routed_nsq)];
    if (state.outstanding > 0) {
      --state.outstanding;
    }
    PumpScheduler(rq->routed_nsq);
  }
  if (rq->status != IoStatus::kOk) {
    ++error_completions_;
    if (watchdog_enabled_ && rq->fault_retries < recovery_.max_retries) {
      // Failed attempt with retries left: balance the routing hook for this
      // attempt, then re-drive the request through the full submission path
      // after a backed-off delay. The tenant never sees this completion.
      TenantErrorStats& es = ErrorStatsFor(*rq);
      ++fault_retries_;
      ++es.retries;
      if (trace_ != nullptr) {
        trace_->Record(machine_->now(), TraceCategory::kRetry, rq->id,
                       rq->routed_nsq, rq->fault_retries + 1);
      }
      OnRequestCompleted(rq);
      ScheduleRetry(rq);
      return;
    }
    // Retries exhausted (or no recovery armed): deliver the error.
    ++ErrorStatsFor(*rq).errors;
  }
  const int tenant_core = rq->tenant != nullptr ? rq->tenant->core : irq_core;
  if (tenant_core != irq_core) {
    ++cross_core_completions_;
  }
  if (trace_ != nullptr) {
    trace_->Record(machine_->now(), TraceCategory::kDeliver, rq->id, irq_core,
                   tenant_core);
  }
  OnRequestCompleted(rq);
  machine_->Post(
      tenant_core, WorkLevel::kUser, costs_.complete_delivery,
      [this, rq, ncq_id, irq_core]() {
        rq->t.complete = machine_->now();
        if (timeline_ != nullptr) {
          // Last chance to copy the stage stamps: the workload layer recycles
          // the request object inside on_complete.
          timeline_->Append(*rq, irq_core, ncq_id);
        }
        if (rq->on_complete) {
          rq->on_complete(rq);
        }
      },
      irq_core);
}

void StorageStack::SetFaultPlan(FaultPlan* plan) {
  device_->SetFaultPlan(plan);
  // The device normalizes empty plans to null; follow its decision so the
  // fault-free hot path never arms a watchdog (fingerprint contract).
  watchdog_enabled_ = device_->fault_plan() != nullptr;
}

StorageStack::TenantErrorStats& StorageStack::ErrorStatsFor(const Request& rq) {
  const TenantId tid = rq.tenant != nullptr ? rq.tenant->id : kNoTenant;
  return tenant_errors_[tid];
}

TickDuration StorageStack::BackoffFor(uint16_t attempt) const {
  // backoff * 2^(attempt-1), capped. attempt is 1-based (the first retry).
  const int shift = attempt > 1 ? attempt - 1 : 0;
  const Tick base = recovery_.backoff.ticks();
  const Tick cap = recovery_.backoff_cap.ticks();
  if (shift >= 62 || base > (cap >> shift)) {
    return recovery_.backoff_cap;
  }
  const Tick ns = base << shift;
  return ns < cap ? TickDuration{ns} : recovery_.backoff_cap;
}

void StorageStack::ArmWatchdog(Request* rq) {
  const uint16_t attempt = rq->fault_retries;
  const uint64_t id = rq->id;
  Outstanding& out = outstanding_[id];
  if (!out.timer.empty()) {
    // A prior attempt's deadline is still armed (defensive: the completion
    // and abort paths disarm before re-submission).
    machine_->sim().Cancel(out.timer);
  }
  out.rq = rq;
  out.attempt = attempt;
  out.armed_at = machine_->now();
  out.timer = machine_->sim().ScheduleAfter(
      recovery_.timeout, [this, id, attempt]() { OnWatchdogFire(id, attempt); });
}

void StorageStack::DisarmWatchdog(uint64_t id) {
  auto it = outstanding_.find(id);
  if (it == outstanding_.end()) {
    return;
  }
  // A handle whose timer already fired is stale; Cancel is then a no-op.
  machine_->sim().Cancel(it->second.timer);
  outstanding_.erase(it);
}

void StorageStack::OnWatchdogFire(uint64_t id, uint16_t attempt) {
  auto it = outstanding_.find(id);
  if (it == outstanding_.end() || it->second.attempt != attempt) {
    return;  // Stale timer: the attempt completed or was already retried.
  }
  Request* rq = it->second.rq;
  ++timeouts_;
  ++ErrorStatsFor(*rq).timeouts;
  timeout_latency_ns_ += DurationBetween(it->second.armed_at, machine_->now());
  if (trace_ != nullptr) {
    trace_->Record(machine_->now(), TraceCategory::kTimeout, rq->id,
                   rq->routed_nsq, rq->fault_retries);
  }
  // Before declaring the command stuck, poll its bound NCQ: a dropped IRQ
  // leaves posted CQEs stranded, and aborting an already-completed command
  // would be a lifecycle violation (nvme_timeout polls before resetting too).
  const int nsq = rq->routed_nsq;
  const int ncq = nsq >= 0 ? device_->NcqOfNsq(nsq) : 0;
  const int core = device_->ncq(ncq).irq_core().value();
  machine_->Post(
      core, WorkLevel::kKernel, costs_.poll_base, [this, id, attempt, ncq, core]() {
        auto cqes = device_->DrainCompletions(
            ncq, static_cast<size_t>(device_->config().queue_depth));
        for (const auto& cqe : cqes) {
          DeliverCompletion(cqe, ncq, core);
        }
        auto it2 = outstanding_.find(id);
        if (it2 == outstanding_.end() || it2->second.attempt != attempt) {
          // The recovery poll found the completion (lost IRQ).
          ++watchdog_recovered_;
          return;
        }
        EscalateTimeout(it2->second.rq);
      });
}

void StorageStack::EscalateTimeout(Request* rq) {
  // Genuinely stuck: abort the outstanding attempt. The device reclaims the
  // NSQ/NCQ slot whichever stage the command sits in (queued, dropped,
  // mid-flash, or racing its CQE post).
  const uint64_t cid = rq->attempt_cid != 0 ? rq->attempt_cid : rq->id;
  device_->AbortCommand(rq->routed_nsq, cid);
  DD_CHECK(lifecycle_.OnAbort(*rq, machine_->now()))
      << lifecycle_.last_violation();
  DisarmWatchdog(rq->id);
  ++aborts_;
  TenantErrorStats& es = ErrorStatsFor(*rq);
  ++es.aborts;
  if (trace_ != nullptr) {
    trace_->Record(machine_->now(), TraceCategory::kAbort, rq->id,
                   rq->routed_nsq, rq->fault_retries);
  }
  // The aborted attempt will never see DeliverCompletion: balance the
  // routing hook and the scheduler dispatch window here.
  OnRequestCompleted(rq);
  if (sched_kind_ != IoSchedulerKind::kNone && rq->routed_nsq >= 0) {
    SchedState& state = sched_[static_cast<size_t>(rq->routed_nsq)];
    if (state.outstanding > 0) {
      --state.outstanding;
    }
    PumpScheduler(rq->routed_nsq);
  }
  if (rq->fault_retries < recovery_.max_retries) {
    ++fault_retries_;
    ++es.retries;
    if (trace_ != nullptr) {
      trace_->Record(machine_->now(), TraceCategory::kRetry, rq->id,
                     rq->routed_nsq, rq->fault_retries + 1);
    }
    ScheduleRetry(rq);
  } else {
    FailRequest(rq, IoStatus::kTimedOut);
  }
}

void StorageStack::ScheduleRetry(Request* rq) {
  ++rq->fault_retries;
  rq->PrepareRetry();
  rq->attempt_cid = (1ULL << 63) | ++next_attempt_cid_;
  const TickDuration delay = BackoffFor(rq->fault_retries);
  machine_->sim().After(delay, [this, rq]() { SubmitAsync(rq); });
}

void StorageStack::FailRequest(Request* rq, IoStatus status) {
  // Retries exhausted with no completion to deliver: fail the request to the
  // tenant from here. The stage stamps of the aborted attempt are partial,
  // so the timeline log is skipped - the trace stream already carries the
  // timeout/abort/retry records for attribution.
  rq->status = status;
  ++failed_requests_;
  ++ErrorStatsFor(*rq).errors;
  const int tenant_core = rq->tenant != nullptr ? rq->tenant->core : 0;
  machine_->Post(
      tenant_core, WorkLevel::kUser, costs_.complete_delivery,
      [this, rq]() {
        rq->t.complete = machine_->now();
        if (rq->on_complete) {
          rq->on_complete(rq);
        }
      });
}

}  // namespace daredevil
