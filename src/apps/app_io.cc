#include "src/apps/app_io.h"

namespace daredevil {

AppIoContext::AppIoContext(Machine* machine, StorageStack* stack, Tenant* tenant,
                           uint32_t nsid)
    : TenantIo(machine, stack, tenant, nsid) {}

uint64_t AppIoContext::IssueOp(const Shape& shape, Callback done) {
  if (shape.is_flush) {
    ++flushes_;  // barriers move no data: not a write, no pages transferred
  } else {
    (shape.is_write ? writes_ : reads_) += 1;
    pages_ += shape.pages;
  }
  return Issue(shape, std::move(done));
}

uint64_t AppIoContext::Read(uint64_t lba, uint32_t pages, Callback done) {
  return IssueOp({.lba = Lba{lba}, .pages = pages}, std::move(done));
}

uint64_t AppIoContext::Write(uint64_t lba, uint32_t pages, bool sync, bool meta,
                             Callback done) {
  return IssueOp(
      {.lba = Lba{lba}, .pages = pages, .is_write = true, .is_sync = sync,
       .is_meta = meta},
      std::move(done));
}

uint64_t AppIoContext::WriteFua(uint64_t lba, uint32_t pages, bool meta,
                                Callback done) {
  return IssueOp(
      {.lba = Lba{lba}, .pages = pages, .is_write = true, .is_sync = true,
       .is_meta = meta, .is_fua = true},
      std::move(done));
}

uint64_t AppIoContext::Flush(Callback done) {
  // A barrier targets no LBA; page 0 with pages=1 keeps queue-capacity
  // accounting honest without touching flash (the device never schedules a
  // flash page for a flush command).
  return IssueOp({.lba = Lba{0}, .pages = 1, .is_sync = true, .is_flush = true},
                 std::move(done));
}

void AppIoContext::Compute(TickDuration duration, Callback done) {
  machine_->Post(tenant().core, WorkLevel::kUser, duration,
                 [done = std::move(done)]() {
                   if (done) {
                     done();
                   }
                 });
}

}  // namespace daredevil
