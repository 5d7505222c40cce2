// One tenant's I/O core, shared by every traffic source: closed-loop FIO jobs,
// open-loop arrivals and application I/O contexts. The core owns the pooled
// Requests, their ids, the user-context issue path and the delivery ledger
// (latency, stages, series, SLO and metrics hooks), so every source issues
// and reports the same way. Sources are thin arrival policies on top: they
// decide when to issue and what, and continue once a request is delivered.
#ifndef DAREDEVIL_SRC_STACK_TENANT_IO_H_
#define DAREDEVIL_SRC_STACK_TENANT_IO_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/sim/rng.h"
#include "src/stack/storage_stack.h"
#include "src/stats/histogram.h"
#include "src/stats/metrics.h"
#include "src/stats/time_series.h"

namespace daredevil {

class SloTenantState;  // src/stats/slo.h

class TenantIo {
 public:
  // A source's continuation for one request. It runs after the delivery was
  // accounted and the request went back to the pool.
  using Callback = std::function<void()>;

  // Everything a source chooses about one I/O; the core stamps the rest.
  struct Shape {
    Lba lba;  // namespace-relative, in 4KB pages
    uint32_t pages = 1;
    bool is_write = false;
    bool is_sync = false;
    bool is_meta = false;
    bool is_flush = false;
    bool is_fua = false;
  };

  TenantIo(const TenantIo&) = delete;
  TenantIo& operator=(const TenantIo&) = delete;

  Tenant& tenant() { return *tenant_; }
  Machine& machine() { return *machine_; }
  uint32_t nsid() const { return nsid_; }
  uint64_t namespace_pages() const {
    return stack_->device().NamespacePages(nsid_);
  }

  // Measured within [measure_start, measure_end) only.
  const Histogram& latency() const { return latency_; }
  // Per-stage lifecycle breakdown of the measured requests.
  const StageBreakdown& stages() const { return stages_; }
  uint64_t measured_ios() const { return ios_; }
  uint64_t measured_bytes() const { return bytes_; }
  uint64_t total_issued() const { return issued_; }
  uint64_t total_completed() const { return completed_; }
  // Completions delivered with status != kOk (fault-injection runs only).
  uint64_t total_errored() const { return errored_; }
  int inflight() const { return inflight_; }

  // Optional whole-run series (shared per group; owned by the scenario).
  void AttachSeries(TimeSeries* latency_series, TimeSeries* bytes_series) {
    latency_series_ = latency_series;
    bytes_series_ = bytes_series;
  }

  // Optional SLO observer (owned by the scenario's SloTracker; null is fine
  // and means this tenant matched no spec). Fed one call per delivery.
  void AttachSlo(SloTenantState* slo) { slo_ = slo; }

  // Registers this tenant's traffic into group-aggregated counters
  // ("workload.<group>.issued" / ".completed"); tenants of the same group
  // share the cells by name.
  void AttachMetrics(MetricsRegistry* registry);

 protected:
  // Owns `tenant` and targets its primary namespace (workload jobs).
  TenantIo(Machine* machine, StorageStack* stack, Tenant tenant,
           Tick measure_start, Tick measure_end);
  // Borrows a caller-owned `tenant` (applications). No measurement window,
  // so latency, stages, ios and bytes stay empty.
  TenantIo(Machine* machine, StorageStack* stack, Tenant* tenant,
           uint32_t nsid);
  ~TenantIo() = default;

  // The one I/O shape check: 1 <= pages and [lba, lba + pages) inside the
  // namespace. Fixed-shape sources also call it before their first
  // arithmetic on the page count.
  void CheckShape(Lba lba, uint32_t pages) const;

  // Start page of the next I/O of a fixed-size stream: uniform over the
  // namespace when `random`, else the sequential `cursor`, which then
  // advances and wraps before it would run off the end.
  Lba NextStreamLba(Rng& rng, bool random, uint32_t pages,
                    uint64_t& cursor) const;

  // Pre-creates pooled requests, so a fixed-depth source allocates at
  // construction rather than mid-run.
  void ReservePool(int n);

  // Issues one I/O: the syscall and buffer preparation run in user context
  // on the tenant's current core, then the stack takes over in kernel
  // context. `done` (may be empty) runs after delivery. Returns the request
  // id, which is also the device command id of the first attempt.
  uint64_t Issue(const Shape& shape, Callback done);

  Machine* machine_;
  StorageStack* stack_;
  Tick measure_start_;
  Tick measure_end_;

 private:
  struct Slot {
    Request rq;
    Callback done;
  };

  Slot* NewSlot();
  void Deliver(Slot* slot);

  Tenant owned_tenant_;  // unused when the tenant is borrowed
  Tenant* tenant_;
  uint32_t nsid_;

  // Pooled and recycled across the whole run: keep the request compact so a
  // deep pool stays cache-resident (growth here is a hot-path regression).
  static_assert(sizeof(Request) <= 256,
                "Request outgrew its pooled-allocation budget");
  std::vector<std::unique_ptr<Slot>> pool_;
  std::vector<Slot*> free_list_;
  uint64_t next_rq_id_;

  Histogram latency_;
  StageBreakdown stages_;
  uint64_t ios_ = 0;
  uint64_t bytes_ = 0;
  uint64_t issued_ = 0;
  uint64_t completed_ = 0;
  uint64_t errored_ = 0;
  int inflight_ = 0;
  uint64_t* issued_cell_ = nullptr;
  uint64_t* completed_cell_ = nullptr;
  TimeSeries* latency_series_ = nullptr;
  TimeSeries* bytes_series_ = nullptr;
  SloTenantState* slo_ = nullptr;
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_STACK_TENANT_IO_H_
