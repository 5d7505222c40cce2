// Asynchronous I/O context for simulated applications (the apps' analogue of
// libaio + a file descriptor): issues block reads/writes through a storage
// stack on behalf of a tenant and invokes callbacks on completion.
#ifndef DAREDEVIL_SRC_APPS_APP_IO_H_
#define DAREDEVIL_SRC_APPS_APP_IO_H_

#include <cstdint>
#include <functional>

#include "src/stack/tenant_io.h"

namespace daredevil {

// What application recovery sees at a namespace-relative page after a crash.
// Tests close this over the device's persisted snapshot
// (`[&](uint64_t lba) { return device.PersistedAt(nsid, Lba{lba}); }`), so
// the apps layer never names device types.
using DurabilityView = std::function<PersistedPageView(uint64_t lba)>;

// An application's I/O over the tenant I/O core: explicit LBAs and flags,
// and a per-op callback once the op is delivered.
class AppIoContext : private TenantIo {
 public:
  using Callback = TenantIo::Callback;

  AppIoContext(Machine* machine, StorageStack* stack, Tenant* tenant,
               uint32_t nsid);

  // Issues a read of `pages` 4KB pages at `lba` (namespace-relative).
  // All I/O entry points return the request id — which is also the device
  // command id of the first attempt — so applications can key durability
  // bookkeeping (WAL records, inode versions) by the cid that recovery will
  // find in the device's persisted snapshot.
  uint64_t Read(uint64_t lba, uint32_t pages, Callback done);
  // Issues a write; sync/meta map to REQ_SYNC / REQ_META.
  uint64_t Write(uint64_t lba, uint32_t pages, bool sync, bool meta,
                 Callback done);
  // Issues a FUA write (REQ_FUA, implies REQ_SYNC): completion acknowledges
  // durability — the device persists the pages before posting the CQE.
  uint64_t WriteFua(uint64_t lba, uint32_t pages, bool meta, Callback done);
  // Issues a cache-flush barrier (REQ_OP_FLUSH): on completion, every write
  // the device acknowledged before the flush is durable. Not counted in
  // writes_issued()/pages_transferred() — flushes move no data.
  uint64_t Flush(Callback done);
  // Pure CPU work in user context on the tenant's current core.
  void Compute(TickDuration duration, Callback done);

  using TenantIo::inflight;
  using TenantIo::machine;
  using TenantIo::namespace_pages;
  using TenantIo::nsid;
  using TenantIo::tenant;
  // Every completed op is reported with its end-to-end latency.
  using TenantIo::AttachSlo;

  uint64_t reads_issued() const { return reads_; }
  uint64_t writes_issued() const { return writes_; }
  uint64_t flushes_issued() const { return flushes_; }
  uint64_t pages_transferred() const { return pages_; }

 private:
  uint64_t IssueOp(const Shape& shape, Callback done);

  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t flushes_ = 0;
  uint64_t pages_ = 0;
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_APPS_APP_IO_H_
