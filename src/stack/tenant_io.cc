#include "src/stack/tenant_io.h"

#include <utility>

#include "src/core/invariant.h"
#include "src/stats/slo.h"

namespace daredevil {

TenantIo::TenantIo(Machine* machine, StorageStack* stack, Tenant tenant,
                   Tick measure_start, Tick measure_end)
    : machine_(machine),
      stack_(stack),
      measure_start_(measure_start),
      measure_end_(measure_end),
      owned_tenant_(std::move(tenant)),
      tenant_(&owned_tenant_),
      nsid_(owned_tenant_.primary_nsid),
      next_rq_id_(owned_tenant_.id.value() << 32) {}

TenantIo::TenantIo(Machine* machine, StorageStack* stack, Tenant* tenant,
                   uint32_t nsid)
    : machine_(machine),
      stack_(stack),
      measure_start_(0),
      measure_end_(0),
      tenant_(tenant),
      nsid_(nsid),
      next_rq_id_(tenant->id.value() << 32) {}

void TenantIo::AttachMetrics(MetricsRegistry* registry) {
  issued_cell_ = registry->Counter("workload." + tenant_->group + ".issued");
  completed_cell_ =
      registry->Counter("workload." + tenant_->group + ".completed");
}

void TenantIo::CheckShape(Lba lba, uint32_t pages) const {
  DD_CHECK(pages >= 1) << "tenant " << tenant_->name
                       << " issues empty I/Os (0 pages)";
  DD_CHECK(lba.value() + pages <= namespace_pages())
      << "tenant " << tenant_->name << " I/O [" << lba << ", " << lba + pages
      << ") overruns namespace " << nsid_ << " (" << namespace_pages()
      << " pages)";
}

Lba TenantIo::NextStreamLba(Rng& rng, bool random, uint32_t pages,
                            uint64_t& cursor) const {
  const uint64_t ns_pages = namespace_pages();
  if (random) {
    return Lba{rng.NextBelow(ns_pages - pages + 1)};
  }
  const Lba lba{cursor};
  cursor += pages;
  if (cursor + pages > ns_pages) {
    cursor = 0;
  }
  return lba;
}

void TenantIo::ReservePool(int n) {
  pool_.reserve(static_cast<size_t>(n));
  free_list_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    free_list_.push_back(NewSlot());
  }
}

TenantIo::Slot* TenantIo::NewSlot() {
  Slot* slot = pool_.emplace_back(std::make_unique<Slot>()).get();
  slot->rq.tenant = tenant_;
  slot->rq.on_complete = [this, slot](Request*) { Deliver(slot); };
  return slot;
}

uint64_t TenantIo::Issue(const Shape& shape, Callback done) {
  CheckShape(shape.lba, shape.pages);
  if (free_list_.empty()) {
    free_list_.push_back(NewSlot());
  }
  Slot* const slot = free_list_.back();
  free_list_.pop_back();
  ++inflight_;
  ++issued_;
  if (issued_cell_ != nullptr) {
    ++*issued_cell_;
  }

  Request* rq = &slot->rq;
  rq->id = ++next_rq_id_;
  rq->nsid = nsid_;
  rq->lba = shape.lba;
  rq->pages = shape.pages;
  rq->is_write = shape.is_write;
  rq->is_sync = shape.is_sync;
  rq->is_meta = shape.is_meta;
  rq->is_flush = shape.is_flush;
  rq->is_fua = shape.is_fua;
  rq->ResetTimeline();  // pooled request: clear the previous run's stamps
  rq->t.issue = machine_->now();
  rq->routed_nsq = -1;
  rq->submit_core = tenant_->core;
  slot->done = std::move(done);

  const TickDuration issue_cost =
      stack_->costs().syscall +
      static_cast<Tick>(shape.pages) * stack_->costs().per_page_user;
  machine_->Post(tenant_->core, WorkLevel::kUser, issue_cost,
                 [this, rq]() {
                   rq->submit_core = tenant_->core;
                   stack_->SubmitAsync(rq);
                 });
  return rq->id;
}

void TenantIo::Deliver(Slot* slot) {
  const Request& rq = slot->rq;
  --inflight_;
  ++completed_;
  if (rq.status != IoStatus::kOk) {
    // Fault runs only: the stack exhausted its retries and delivered the
    // failure. The request still counts as completed (it left the stack).
    ++errored_;
  }
  if (completed_cell_ != nullptr) {
    ++*completed_cell_;
  }
  const Tick latency = rq.t.complete - rq.t.issue;
  const Tick now = machine_->now();
  if (now >= measure_start_ && now < measure_end_) {
    latency_.Record(latency);
    stages_.Record(rq);
    ++ios_;
    bytes_ += rq.bytes();
  }
  if (latency_series_ != nullptr) {
    latency_series_->Record(now, latency);
  }
  if (bytes_series_ != nullptr) {
    bytes_series_->Record(now, static_cast<int64_t>(rq.bytes()));
  }
  if (slo_ != nullptr) {
    slo_->Record(now, latency, rq.status == IoStatus::kOk);
  }
  Callback done = std::move(slot->done);
  slot->done = nullptr;
  free_list_.push_back(slot);
  if (done) {
    done();
  }
}

}  // namespace daredevil
