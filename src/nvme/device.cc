#include "src/nvme/device.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

#include "src/core/invariant.h"
#include "src/stats/metrics.h"

namespace daredevil {

Device::Device(Simulator* sim, const DeviceConfig& config)
    : sim_(sim), config_(config), flash_(config.flash) {
  DD_CHECK(config_.nr_nsq >= 1) << "nr_nsq=" << config_.nr_nsq;
  DD_CHECK(config_.nr_ncq >= 1) << "nr_ncq=" << config_.nr_ncq;
  DD_CHECK_LE(config_.nr_ncq, config_.nr_nsq)
      << "NVMe exposes at least as many NSQs as NCQs";
  nsqs_.reserve(static_cast<size_t>(config_.nr_nsq));
  for (int i = 0; i < config_.nr_nsq; ++i) {
    nsqs_.push_back(
        std::make_unique<SubmissionQueue>(QueueId{i}, config_.queue_depth));
  }
  ncqs_.reserve(static_cast<size_t>(config_.nr_ncq));
  for (int i = 0; i < config_.nr_ncq; ++i) {
    // IRQ cores are assigned by the driver (storage stack) at attach time;
    // default to a spread the stacks overwrite.
    ncqs_.push_back(std::make_unique<CompletionQueue>(
        QueueId{i}, config_.queue_depth, CoreId{i}));
  }
  armed_words_.assign((nsqs_.size() + 63) / 64, 0);
  head_pages_.assign(nsqs_.size(), 0);
  uint64_t base = 0;
  ns_base_.reserve(config_.namespace_pages.size());
  for (uint64_t pages : config_.namespace_pages) {
    ns_base_.push_back(base);
    base += pages;
  }
}

void Device::RegisterMetrics(MetricsRegistry* registry) const {
  const Device* d = this;
  registry->RegisterGauge("device.commands_fetched", [d]() {
    return static_cast<double>(d->commands_fetched());
  });
  registry->RegisterGauge("device.commands_completed", [d]() {
    return static_cast<double>(d->commands_completed());
  });
  registry->RegisterGauge("device.fetch_stall_ns", [d]() {
    return static_cast<double>(d->fetch_stall_ns());
  });
  registry->RegisterGauge("device.irqs_total", [d]() {
    uint64_t total = 0;
    for (int i = 0; i < d->nr_ncq(); ++i) {
      total += d->ncq(i).irqs();
    }
    return static_cast<double>(total);
  });
  registry->RegisterGauge("device.nsq_contention_ns", [d]() {
    TickDuration total;
    for (int i = 0; i < d->nr_nsq(); ++i) {
      total += d->nsq(i).in_contention_ns();
    }
    return static_cast<double>(total.ticks());
  });
  registry->RegisterGauge("device.nsq_full_rejections", [d]() {
    uint64_t total = 0;
    for (int i = 0; i < d->nr_nsq(); ++i) {
      total += d->nsq(i).full_rejections();
    }
    return static_cast<double>(total);
  });
  registry->RegisterGauge("device.flash.pages_read", [d]() {
    return static_cast<double>(d->flash().pages_read());
  });
  registry->RegisterGauge("device.flash.pages_written", [d]() {
    return static_cast<double>(d->flash().pages_written());
  });
  registry->RegisterGauge("device.flash.erases", [d]() {
    return static_cast<double>(d->flash().erases());
  });
  registry->RegisterGauge("device.flash.chip_busy_ns", [d]() {
    return static_cast<double>(d->flash().chip_busy_ns());
  });
  if (faults_ != nullptr) {
    // Registered only when a FaultPlan is attached: the metrics snapshot is
    // part of the fingerprint, so fault-free runs must not see these keys.
    registry->RegisterGauge("device.faults.commands_errored", [d]() {
      return static_cast<double>(d->commands_errored());
    });
    registry->RegisterGauge("device.faults.commands_dropped", [d]() {
      return static_cast<double>(d->commands_dropped());
    });
    registry->RegisterGauge("device.faults.commands_aborted", [d]() {
      return static_cast<double>(d->commands_aborted());
    });
    registry->RegisterGauge("device.faults.irqs_dropped", [d]() {
      return static_cast<double>(d->irqs_dropped());
    });
    registry->RegisterGauge("device.faults.irqs_delayed", [d]() {
      return static_cast<double>(d->irqs_delayed());
    });
    registry->RegisterGauge("device.faults.injected_stall_ns", [d]() {
      return static_cast<double>(d->injected_stall_ns().ticks());
    });
    const FaultPlan* plan = faults_;
    registry->RegisterGauge("device.faults.injections", [plan]() {
      return static_cast<double>(plan->total_injections());
    });
  }
}

int Device::TotalNsqOccupancy() const {
  int total = 0;
  for (const auto& sq : nsqs_) {
    total += static_cast<int>(sq->size());
  }
  return total;
}

int Device::TotalNcqPending() const {
  int total = 0;
  for (const auto& cq : ncqs_) {
    total += static_cast<int>(cq->pending());
  }
  return total;
}

std::vector<int> Device::NsqsOfNcq(int ncq_id) const {
  std::vector<int> out;
  for (int i = ncq_id; i < nr_nsq(); i += nr_ncq()) {
    out.push_back(i);
  }
  return out;
}

bool Device::Enqueue(int sqid, NvmeCommand cmd) {
  cmd.sqid = sqid;
  if (!nsqs_[sqid]->Enqueue(cmd)) {
    return false;
  }
  // The command will complete on the statically bound NCQ; count it as in
  // flight there from submission (used by the NCQ merit).
  ncqs_[NcqOfNsq(sqid)]->AddInFlight(1);
  return true;
}

void Device::RingDoorbell(int sqid) {
  nsqs_[sqid]->RingDoorbell(sim_->now());
  SyncArmed(sqid);
  stall_min_head_pages_ = 0;
  KickController();
}

void Device::KickController() {
  if (stalled_) {
    fetch_stall_ns_ += sim_->now() - stall_since_;
    stall_since_ = sim_->now();
    // The armed heads are those the last failed scan saw: if the smallest
    // still does not fit, the scan would fail again. Stay stalled.
    if (config_.max_inflight_pages - inflight_pages_ < stall_min_head_pages_) {
      return;
    }
    stalled_ = false;
  }
  ControllerStep();
}

int Device::SelectNsq() {
  const int n = nr_nsq();
  // Continue the current burst when possible.
  if (current_sq_ >= 0 && burst_left_ > 0 && Armed(current_sq_) &&
      inflight_pages_ + head_pages_[static_cast<size_t>(current_sq_)] <=
          config_.max_inflight_pages) {
    return current_sq_;
  }
  // Round-robin scan for the next armed NSQ whose head fits the remaining
  // device capacity (small commands slip past stalled bulky ones). The armed
  // bitmap jumps straight between armed queues — same visit order as the
  // naive (rr_next_ + i) % n walk, without touching unarmed queues.
  int min_head_pages = config_.max_inflight_pages + 1;
  for (int pass = 0; pass < 2; ++pass) {
    int sqid = pass == 0 ? rr_next_ : 0;
    const int end = pass == 0 ? n : rr_next_;
    while (sqid < end) {
      const uint64_t word =
          armed_words_[static_cast<size_t>(sqid) >> 6] >> (sqid & 63);
      if (word == 0) {
        sqid = ((sqid >> 6) + 1) << 6;  // next bitmap word
        continue;
      }
      sqid += std::countr_zero(word);
      if (sqid >= end) {
        break;
      }
      const int head_pages = head_pages_[static_cast<size_t>(sqid)];
      if (inflight_pages_ + head_pages <= config_.max_inflight_pages) {
        current_sq_ = sqid;
        // Weighted round robin; with every weight 1 it is plain RR.
        burst_left_ = config_.arb_burst * nsqs_[sqid]->weight();
        rr_next_ = (sqid + 1) % n;
        return sqid;
      }
      min_head_pages = std::min(min_head_pages, head_pages);
      ++sqid;
    }
  }
  // The scan visited every armed queue: this bound is exact.
  stall_min_head_pages_ = min_head_pages;
  return -1;
}

void Device::ControllerStep() {
  if (fetch_busy_) {
    return;
  }
  const int sqid = SelectNsq();
  if (sqid < 0) {
    // Nothing fetchable. If work is pending we are stalled on capacity.
    if (AnyArmed() && !stalled_) {
      stalled_ = true;
      stall_since_ = sim_->now();
    }
    return;
  }
  FetchFrom(sqid);
}

void Device::FetchFrom(int sqid) {
  NvmeCommand cmd = nsqs_[sqid]->PopVisible();
  SyncArmed(sqid);
  cmd.t.fetch_start = sim_->now();
  if (trace_ != nullptr) {
    trace_->Record(sim_->now(), TraceCategory::kFetchStart, cmd.cid, cmd.sqid,
                   cmd.pages);
  }
  --burst_left_;
  fetch_busy_ = true;
  TickDuration cost =
      config_.cmd_fetch + static_cast<Tick>(cmd.pages) * config_.per_page_decompose;
  if (faults_ != nullptr) {
    // Injected fetch stall: the fetch engine simply takes longer, which backs
    // pressure up into every NSQ (the controller is a single fetch pipe).
    const TickDuration stall = faults_->FetchStall(sim_->now(), sqid);
    if (stall > kZeroDuration) {
      injected_stall_ns_ += stall;
      cost += stall;
      if (trace_ != nullptr) {
        trace_->Record(sim_->now(), TraceCategory::kFaultInject, cmd.cid, sqid,
                       static_cast<int64_t>(FaultKind::kFetchStall));
      }
    }
  }
  fetching_ = cmd;
  sim_->After(cost, [this]() { FinishFetch(); });
}

void Device::FinishFetch() {
  // Copy out of the pipe register first: ControllerStep at the end of this
  // function may start the next fetch and overwrite fetching_.
  NvmeCommand cmd = fetching_;
  fetch_busy_ = false;
  ++commands_fetched_;
  cmd.t.fetch = sim_->now();
  if (trace_ != nullptr) {
    trace_->Record(sim_->now(), TraceCategory::kFetch, cmd.cid, cmd.sqid,
                   cmd.pages);
  }
  if (faults_ != nullptr && faults_->DropCommand(sim_->now(), cmd.sqid)) {
    // Firmware-hang model: the fetched command vanishes without a trace —
    // no flash service, no CQE, no IRQ. The host's only recovery is its
    // watchdog; AbortCommand finds the cid here and reclaims the NCQ
    // in-flight slot then.
    ++commands_dropped_;
    dropped_cids_.insert(cmd.cid);
    if (trace_ != nullptr) {
      trace_->Record(sim_->now(), TraceCategory::kFaultInject, cmd.cid,
                     cmd.sqid, static_cast<int64_t>(FaultKind::kCommandDrop));
    }
    ControllerStep();
    return;
  }
  inflight_pages_ += static_cast<int>(cmd.pages);
  DD_CHECK(FindInflight(cmd.cid) < 0)
      << "duplicate command id " << cmd.cid << " in flight (NSQ " << cmd.sqid
      << ", tick " << sim_->now() << ")";

  // The command's slot is taken before its page-done events, which carry
  // it. They are scheduled as each page is placed; nothing else schedules in
  // between, so their seq order is the page order.
  const uint32_t slot = AllocInflight();
  const uint64_t base = GlobalPage(cmd.nsid, cmd.lba);
  Tick flash_start = 0;
  uint32_t page_events = 1;
  if (cmd.is_flush) {
    // FLUSH: no flash page is touched; the cache drain runs on the controller
    // for flush_exec and the barrier action happens at completion post (so an
    // aborted flush persists nothing). Rides the normal completion machinery,
    // which keeps the lifecycle stamps valid.
    flash_start = sim_->now();
    sim_->At(sim_->now() + config_.flush_exec,
             [this, slot]() { OnPageDone(slot); });
    inflight_pages_ -= static_cast<int>(cmd.pages) - 1;
  } else {
    page_events = cmd.pages;
    // A write's pages land in the volatile write cache; they reach the
    // persisted snapshot only via a flush barrier, a FUA completion, or
    // (torn) a crash mid-service. Consecutive pages with the same hazard
    // outcome share one extent: without faults, the whole command. A write
    // the crash caught in the fetch pipe (aborted) caches nothing.
    const bool caches = cmd.is_write && cmd.status != IoStatus::kAborted;
    uint64_t run_lo = base;
    VolatilePage run{cmd.cid};
    for (uint32_t p = 0; p < cmd.pages; ++p) {
      Tick start = 0;
      const Tick done =
          flash_.SchedulePage(sim_->now(), base + p, cmd.is_write, &start);
      sim_->At(done, [this, slot]() { OnPageDone(slot); });
      flash_start = p == 0 ? start : std::min(flash_start, start);
      if (caches && faults_ != nullptr) {
        // Durability hazards are decided here — the same hazard point as
        // flash errors — and are invisible on the transport path: the command
        // still completes kOk.
        VolatilePage vp{cmd.cid};
        vp.torn = faults_->TornWrite(sim_->now(), flash_.ChannelOf(base + p),
                                     flash_.ChipOf(base + p));
        vp.reorder_escape = faults_->ReorderWrite(sim_->now(), cmd.sqid);
        if ((vp.torn || vp.reorder_escape) && trace_ != nullptr) {
          trace_->Record(sim_->now(), TraceCategory::kFaultInject, cmd.cid,
                         cmd.sqid,
                         static_cast<int64_t>(vp.torn
                                                  ? FaultKind::kTornWrite
                                                  : FaultKind::kWriteReorder));
        }
        if (vp != run) {
          volatile_writes_.Assign(run_lo, base + p, run);
          run_lo = base + p;
          run = vp;
        }
      }
      if (faults_ != nullptr &&
          faults_->FlashPageFails(sim_->now(), flash_.ChannelOf(base + p),
                                  flash_.ChipOf(base + p), cmd.is_write)) {
        // Unrecovered read/program error. The chip occupancy is unchanged
        // (the controller's retry/ECC work occupies the die either way);
        // the command completes with a media-error CQE.
        if (cmd.status == IoStatus::kOk) {
          cmd.status = IoStatus::kMediaError;
        }
        if (trace_ != nullptr) {
          trace_->Record(sim_->now(), TraceCategory::kFaultInject, cmd.cid,
                         flash_.ChannelOf(base + p),
                         static_cast<int64_t>(
                             cmd.is_write ? FaultKind::kFlashProgramError
                                          : FaultKind::kFlashReadError));
        }
      }
    }
    if (caches) {
      volatile_writes_.Assign(run_lo, base + cmd.pages, run);
    }
  }
  cmd.t.flash_start = flash_start;
  if (trace_ != nullptr) {
    // The time-advance flash model computes service times up front, so the
    // event timestamp (the chip-op start) can lie ahead of record order.
    trace_->Record(flash_start, TraceCategory::kFlashStart, cmd.cid,
                   cmd.sqid, cmd.pages);
  }

  inflight_[slot] = InflightCommand{cmd, page_events};
  ControllerStep();
}

uint32_t Device::AllocInflight() {
  if (inflight_free_.empty()) {
    inflight_.emplace_back();
    return static_cast<uint32_t>(inflight_.size() - 1);
  }
  const uint32_t slot = inflight_free_.back();
  inflight_free_.pop_back();
  return slot;
}

int Device::FindInflight(uint64_t cid) const {
  for (size_t i = 0; i < inflight_.size(); ++i) {
    if (inflight_[i].pages_remaining > 0 && inflight_[i].cmd.cid == cid) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void Device::OnPageDone(uint32_t slot) {
  InflightCommand& ic = inflight_[slot];
  DD_CHECK(ic.pages_remaining > 0)
      << "flash page completion for free in-flight slot " << slot
      << " at tick " << sim_->now();
  --ic.pages_remaining;
  --inflight_pages_;
  DD_CHECK_LE(0, inflight_pages_)
      << "device buffer accounting underflow (cid " << ic.cmd.cid << ")";
  ic.cmd.t.flash_end = sim_->now();
  if (ic.pages_remaining == 0) {
    const InflightCommand done = ic;
    inflight_free_.push_back(slot);
    if (done.aborted) {
      // Host-aborted while in flash service: the pages ran to completion
      // (they cannot be recalled from the chips) but no CQE is posted. The
      // NCQ in-flight slot is reclaimed here — the one place this command
      // leaves the device.
      ncqs_[NcqOfNsq(done.cmd.sqid)]->AddInFlight(-1);
      KickController();
      return;
    }
    if (trace_ != nullptr) {
      trace_->Record(sim_->now(), TraceCategory::kFlashEnd, done.cmd.cid,
                     done.cmd.sqid, done.cmd.pages);
    }
    completion_pending_.push_back(done);
    sim_->After(config_.completion_post, [this]() { PostPendingCompletion(); });
  }
  // Freed capacity may unblock the fetch engine.
  KickController();
}

void Device::PostPendingCompletion() {
  const InflightCommand done = std::move(completion_pending_.front());
  completion_pending_.pop_front();
  PostCompletion(done);
}

void Device::PostCompletion(const InflightCommand& ic) {
  const int ncq_id = NcqOfNsq(ic.cmd.sqid);
  CompletionQueue& cq = *ncqs_[ncq_id];
  if (!aborted_cids_.empty() && aborted_cids_.erase(ic.cmd.cid) > 0) {
    // Aborted in the completion-post gap: suppress the CQE and reclaim the
    // in-flight slot (the abort path could not — the command was neither in
    // the NSQ, nor in flash service, nor dropped).
    cq.AddInFlight(-1);
    return;
  }
  ++commands_completed_;
  NvmeCompletion cqe;
  cqe.cid = ic.cmd.cid;
  cqe.sqid = ic.cmd.sqid;
  cqe.status = ic.cmd.status;
  if (faults_ != nullptr && cqe.status == IoStatus::kOk) {
    cqe.status = faults_->CqeStatus(sim_->now(), ic.cmd.sqid,
                                    static_cast<int>(ic.cmd.nsid));
    if (cqe.status != IoStatus::kOk && trace_ != nullptr) {
      trace_->Record(sim_->now(), TraceCategory::kFaultInject, cqe.cid,
                     ic.cmd.sqid,
                     static_cast<int64_t>(
                         cqe.status == IoStatus::kMediaError
                             ? FaultKind::kCqeMediaError
                             : FaultKind::kCqeNamespaceNotReady));
    }
  }
  if (cqe.status != IoStatus::kOk) {
    ++commands_errored_;
  }
  // Durability actions ride the acknowledgement: a command only persists
  // anything if its CQE reports success (an errored flush/FUA must not be
  // trusted by the host, and recovery tests assert exactly that boundary).
  if (cqe.status == IoStatus::kOk) {
    if (ic.cmd.is_flush) {
      ++flushes_completed_;
      if (faults_ != nullptr &&
          faults_->IgnoreFlush(sim_->now(), ic.cmd.sqid)) {
        // Lying device: the FLUSH completes successfully but the write cache
        // stays volatile. Only a later (honest) barrier or crash reveals it.
        ++flushes_ignored_;
        if (trace_ != nullptr) {
          trace_->Record(sim_->now(), TraceCategory::kFaultInject, ic.cmd.cid,
                         ic.cmd.sqid,
                         static_cast<int64_t>(FaultKind::kFlushIgnore));
        }
      } else {
        PersistBarrier();
      }
    } else if (ic.cmd.is_write && ic.cmd.fua) {
      PersistPages(ic.cmd);
    }
  }
  cqe.cookie = ic.cmd.cookie;
  cqe.t = ic.cmd.t;
  cqe.t.cqe_post = sim_->now();
  cq.Push(cqe);
  if (trace_ != nullptr) {
    trace_->Record(sim_->now(), TraceCategory::kComplete, cqe.cid, ncq_id, 0);
  }

  if (cq.polled()) {
    return;  // the host polls this NCQ; no IRQ is ever raised
  }
  if (cq.irq_masked()) {
    return;  // the in-service ISR (or IrqDone) will pick this up
  }
  if (cq.pending() >= static_cast<size_t>(cq.coalesce_count())) {
    RaiseIrq(ncq_id);
  } else {
    ArmCoalesceTimer(ncq_id);
  }
}

void Device::RaiseIrq(int ncq_id) {
  CompletionQueue& cq = *ncqs_[ncq_id];
  if (faults_ != nullptr) {
    const IrqFault f = faults_->OnIrq(sim_->now(), ncq_id);
    if (f.drop) {
      // Lost interrupt: the vector fires into the void. The NCQ is left
      // unmasked with its entries pending, so the next completion (or the
      // host watchdog's recovery poll) picks them up — exactly the hang a
      // real lost MSI produces.
      ++irqs_dropped_;
      if (trace_ != nullptr) {
        trace_->Record(sim_->now(), TraceCategory::kFaultInject, 0, ncq_id,
                       static_cast<int64_t>(FaultKind::kIrqDrop));
      }
      return;
    }
    if (f.delay > kZeroDuration) {
      // Delayed delivery: mask now (the vector is in flight) and hand it to
      // the driver after the injected latency.
      ++irqs_delayed_;
      if (trace_ != nullptr) {
        trace_->Record(sim_->now(), TraceCategory::kFaultInject, 0, ncq_id,
                       static_cast<int64_t>(FaultKind::kIrqDelay));
      }
      cq.CountIrq();
      cq.set_irq_masked(true);
      sim_->After(f.delay, [this, ncq_id]() {
        if (irq_handler_) {
          irq_handler_(ncq_id);
        }
      });
      return;
    }
  }
  cq.CountIrq();
  if (trace_ != nullptr) {
    trace_->Record(sim_->now(), TraceCategory::kIrq, 0, ncq_id,
                   cq.irq_core().value());
  }
  cq.set_irq_masked(true);
  if (irq_handler_) {
    irq_handler_(ncq_id);
  }
}

void Device::PersistBarrier() {
  volatile_writes_.EraseIf(
      0, UINT64_MAX,
      [this](uint64_t lo, uint64_t hi, const VolatilePage& vp) {
        if (vp.reorder_escape) {
          return false;
        }
        persisted_.Assign(lo, hi, PersistedPage{vp.cid, vp.torn});
        return true;
      });
  // What is left escaped this barrier. The escape is consumed so the *next*
  // flush persists it (a one-barrier reordering window).
  volatile_writes_.ForEach(
      [](uint64_t, uint64_t, VolatilePage& vp) { vp.reorder_escape = false; });
}

void Device::PersistPages(const NvmeCommand& cmd) {
  ++fua_persists_;
  const uint64_t base = GlobalPage(cmd.nsid, cmd.lba);
  // Pages no longer volatile were already persisted (or overwritten and
  // persisted) by a later write. FUA persists this command's cache entry even
  // if a later volatile write overwrote the page — but then the later cid is
  // what recovery must see, and that later write stays volatile.
  volatile_writes_.EraseIf(
      base, base + cmd.pages,
      [this, &cmd](uint64_t lo, uint64_t hi, const VolatilePage& vp) {
        persisted_.Assign(lo, hi, PersistedPage{vp.cid, vp.torn});
        return vp.cid == cmd.cid;
      });
}

void Device::Crash() {
  if (crashed_) {
    return;
  }
  crashed_ = true;
  // Torn-marked volatile pages persist as corrupt; clean volatile pages are
  // simply lost (whatever the page held before, if anything, stays visible).
  volatile_writes_.ForEach(
      [this](uint64_t lo, uint64_t hi, const VolatilePage& vp) {
        if (vp.torn) {
          persisted_.Assign(lo, hi, PersistedPage{vp.cid, true});
        }
      });
  volatile_writes_.clear();
  // Writes caught mid-flash-service: the crash interrupted the program. The
  // FTL maps a page to its new location only after the program completes, so
  // a page with a prior durable version keeps it (atomic remap — the
  // interrupted rewrite simply never happened), while a first write with
  // nothing to fall back to reads back torn. Recovery must detect the torn
  // pages, never serve them. Ascending cid order: the oldest in-flight write
  // claims an unmapped page first. Slot order is reuse order, so the live
  // writes are sorted by cid explicitly.
  std::vector<const NvmeCommand*> writes;
  for (const InflightCommand& ic : inflight_) {
    if (ic.pages_remaining > 0 && ic.cmd.is_write && !ic.cmd.is_flush &&
        !ic.aborted) {
      writes.push_back(&ic.cmd);
    }
  }
  std::sort(writes.begin(), writes.end(),
            [](const NvmeCommand* a, const NvmeCommand* b) {
              return a->cid < b->cid;
            });
  for (const NvmeCommand* cmd : writes) {
    const uint64_t base = GlobalPage(cmd->nsid, cmd->lba);
    persisted_.FillGaps(base, base + cmd->pages,
                        PersistedPage{cmd->cid, true});
  }
  // The power loss ends every command the controller had taken: in the
  // fetch pipe, in flash service or waiting for its CQE post. Each still
  // completes, with kAborted, so it persists nothing (a FUA persist or a
  // flush barrier rides only a kOk CQE). Commands still in an NSQ are
  // served afterwards as new work.
  if (fetch_busy_) {
    fetching_.status = IoStatus::kAborted;
  }
  for (InflightCommand& ic : inflight_) {
    if (ic.pages_remaining > 0) {
      ic.cmd.status = IoStatus::kAborted;
    }
  }
  for (size_t i = 0; i < completion_pending_.size(); ++i) {
    completion_pending_[i].cmd.status = IoStatus::kAborted;
  }
}

PersistedPageView Device::PersistedAt(uint32_t nsid, Lba lba) const {
  PersistedPageView view;
  if (const PersistedPage* pp = persisted_.Find(GlobalPage(nsid, lba))) {
    view.present = true;
    view.cid = pp->cid;
    view.torn = pp->torn;
  }
  return view;
}

Device::AbortOutcome Device::AbortCommand(int sqid, uint64_t cid) {
  ++commands_aborted_;
  CompletionQueue& cq = *ncqs_[NcqOfNsq(sqid)];
  if (trace_ != nullptr) {
    trace_->Record(sim_->now(), TraceCategory::kAbort, cid, sqid, 0);
  }
  // (1) Still sitting in the NSQ ring (never fetched): remove the entry and
  // reclaim both the ring slot and the NCQ in-flight count.
  if (nsqs_[sqid]->RemoveById(cid)) {
    SyncArmed(sqid);
    stall_min_head_pages_ = 0;
    cq.AddInFlight(-1);
    return AbortOutcome::kRemovedFromQueue;
  }
  // (2) In flash service: mark it; the final OnPageDone reclaims and
  // suppresses the CQE (in-flight page events cannot be cancelled).
  if (const int slot = FindInflight(cid); slot >= 0) {
    inflight_[static_cast<size_t>(slot)].aborted = true;
    return AbortOutcome::kAbortedInFlight;
  }
  // (3) Fault-dropped at fetch: the command is already gone; reclaim now.
  if (!dropped_cids_.empty() && dropped_cids_.erase(cid) > 0) {
    cq.AddInFlight(-1);
    return AbortOutcome::kReclaimedDropped;
  }
  // (4) Completion-post gap (last flash page done, PostCompletion event
  // pending with its own copy of the command): leave a tombstone that
  // PostCompletion consumes.
  aborted_cids_.insert(cid);
  return AbortOutcome::kAbortedAtCompletion;
}

void Device::ArmCoalesceTimer(int ncq_id) {
  CompletionQueue& cq = *ncqs_[ncq_id];
  if (cq.timer_armed()) {
    return;
  }
  cq.set_timer_armed(true);
  sim_->After(cq.coalesce_timeout(), [this, ncq_id]() {
    CompletionQueue& q = *ncqs_[ncq_id];
    q.set_timer_armed(false);
    if (q.pending() > 0 && !q.irq_masked()) {
      RaiseIrq(ncq_id);
    }
  });
}

std::vector<NvmeCompletion> Device::DrainCompletions(int ncq_id, size_t max) {
  std::vector<NvmeCompletion> out;
  DrainCompletions(ncq_id, max, &out);
  return out;
}

void Device::DrainCompletions(int ncq_id, size_t max,
                              std::vector<NvmeCompletion>* out) {
  CompletionQueue& cq = *ncqs_[ncq_id];
  const size_t n = std::min(max, cq.pending());
  out->reserve(out->size() + n);
  for (size_t i = 0; i < n; ++i) {
    out->push_back(cq.Pop());
    out->back().t.drain = sim_->now();
  }
  cq.AddInFlight(-static_cast<int>(n));
}

void Device::IrqDone(int ncq_id) {
  CompletionQueue& cq = *ncqs_[ncq_id];
  cq.set_irq_masked(false);
  if (cq.pending() == 0) {
    return;
  }
  if (cq.pending() >= static_cast<size_t>(cq.coalesce_count())) {
    RaiseIrq(ncq_id);
  } else {
    ArmCoalesceTimer(ncq_id);
  }
}

}  // namespace daredevil
