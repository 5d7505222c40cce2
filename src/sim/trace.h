// Lightweight tracepoint infrastructure (the simulation's analogue of kernel
// tracepoints/blktrace): components record fixed-size events into a bounded
// ring buffer that tools dump as CSV. Recording is a no-op when no TraceLog
// is attached, so the hot paths stay clean.
#ifndef DAREDEVIL_SRC_SIM_TRACE_H_
#define DAREDEVIL_SRC_SIM_TRACE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/ring_fifo.h"

namespace daredevil {

// When adding a category: append it before kOther (kOther stays last so the
// static_asserts below pin the enum size), add its name to
// kTraceCategoryNames at the same index, and keep kNumTraceCategories in
// sync. The static_asserts below cross-check all three and reject an empty
// or duplicate name. Then add its export row to kTraceCategoryRows
// (src/stats/trace_export.cc), where a static_assert checks the row count.
enum class TraceCategory : int {
  kSubmit = 0,   // request entered the block layer
  kRoute,        // routing decision (request -> NSQ)
  kDoorbell,     // NSQ doorbell rung
  kFetchStart,   // controller began fetching a command (left the NSQ head)
  kFetch,        // controller fetched a command
  kFlashStart,   // first page of a command started on a flash chip
  kFlashEnd,     // last page of a command finished flash service
  kComplete,     // command completion posted to an NCQ
  kIrq,          // interrupt raised
  kDeliver,      // completion delivered to the tenant
  // Recorded by nothing. Kept because the trace hash (HashTraceStream,
  // src/workload/scenario.cc) mixes each category's value: removing it
  // would renumber the categories after it.
  kSchedule,
  kMigrate,      // tenant moved cores
  kFaultInject,  // fault layer fired (a = hazard site, b = FaultKind)
  kTimeout,      // host watchdog expired for a request
  kRetry,        // stack re-submitted a request after abort/error
  kAbort,        // host aborted an outstanding command
  kOther,
};
inline constexpr int kNumTraceCategories = 17;

// One name per category, indexed by the enum value. A missing trailing entry
// would be a null pointer, which the static_assert below rejects at compile
// time (the per-category count array in TraceLog indexes by enum value, so a
// name/enum mismatch would silently misreport counts).
inline constexpr std::array<const char*, kNumTraceCategories>
    kTraceCategoryNames = {
        "submit",     "route",     "doorbell", "fetch-start", "fetch",
        "flash-start", "flash-end", "complete", "irq",         "deliver",
        "schedule",   "migrate",   "fault",    "timeout",     "retry",
        "abort",      "other",
};

static_assert(static_cast<int>(TraceCategory::kOther) + 1 ==
                  kNumTraceCategories,
              "kNumTraceCategories out of sync with the TraceCategory enum "
              "(kOther must stay the last enumerator)");

namespace trace_internal {
constexpr bool AllCategoryNamesPresent() {
  for (const char* name : kTraceCategoryNames) {
    if (name == nullptr || name[0] == '\0') {
      return false;
    }
  }
  return true;
}

// True when no two entries of `names` spell the same string (null entries
// are left to AllCategoryNamesPresent). Takes the array as a parameter so
// tests can show it rejects a duplicate.
template <std::size_t N>
constexpr bool AllNamesDistinct(const std::array<const char*, N>& names) {
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = i + 1; j < N; ++j) {
      const char* a = names[i];
      const char* b = names[j];
      if (a == nullptr || b == nullptr) {
        continue;
      }
      while (*a != '\0' && *a == *b) {
        ++a;
        ++b;
      }
      if (*a == *b) {
        return false;
      }
    }
  }
  return true;
}
}  // namespace trace_internal

static_assert(trace_internal::AllCategoryNamesPresent(),
              "every TraceCategory needs a non-empty kTraceCategoryNames "
              "entry at its enum index");
static_assert(trace_internal::AllNamesDistinct(kTraceCategoryNames),
              "kTraceCategoryNames entries must be distinct: every category "
              "needs a distinguishable name");

const char* TraceCategoryName(TraceCategory c);

struct TraceEvent {
  Tick at = 0;
  TraceCategory category = TraceCategory::kOther;
  uint64_t id = 0;  // request/command/tenant id
  int64_t a = 0;    // category-specific (e.g. NSQ id)
  int64_t b = 0;    // category-specific (e.g. core id)
};

class TraceLog {
 public:
  explicit TraceLog(size_t capacity = 1 << 16);

  void Record(Tick at, TraceCategory category, uint64_t id = 0, int64_t a = 0,
              int64_t b = 0);

  // Number of retained events (oldest are dropped once full).
  size_t size() const { return events_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t total_recorded() const { return total_; }
  uint64_t dropped() const { return total_ - events_.size(); }
  uint64_t CountOf(TraceCategory category) const {
    return counts_[static_cast<int>(category)];
  }

  // The i-th retained event, oldest first (i < size()): a read of the ring
  // in place.
  const TraceEvent& event(size_t i) const { return events_[i]; }
  // Events in chronological order (a copy).
  std::vector<TraceEvent> Events() const;

  // Writes "time_ns,category,id,a,b" rows after a header line, straight from
  // the ring.
  void WriteCsv(std::ostream& out) const;

  void Clear();

 private:
  size_t capacity_;
  RingFifo<TraceEvent> events_;  // the newest capacity_ events
  uint64_t total_ = 0;
  uint64_t counts_[kNumTraceCategories] = {0};
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_SIM_TRACE_H_
