// Strong vocabulary types for the simulator's hot-path signatures.
//
// The simulation moves four kinds of small integers around: times, logical
// block addresses, queue ids, and actor ids (cores, tenants). All of them
// are "just integers" to the compiler, which is exactly how unit bugs rot a
// simulator silently: a Tick time-point lands in a duration parameter, an
// NSQ id is used where an NCQ id was meant, a namespace-relative LBA is
// mixed with a global page number - and the fingerprint drifts with nothing
// to bisect. The wrappers below make those mix-ups compile errors on the
// signatures that have been migrated; tools/ddanalyze counts the raw-integer
// sites that remain (per layer) and CI fails if the count ever grows
// (tools/ddanalyze-baseline.txt, DESIGN.md section 7).
//
// Conventions:
//   * Tick (src/sim/clock.h) stays the *time-point* type.
//   * TickDuration is a *span* of simulated time. Construction from a raw
//     Tick is explicit; time-point arithmetic (`Tick + TickDuration`) is
//     provided, so deadlines read naturally while a bare `now` can no longer
//     be passed where a duration is expected.
//   * StrongId wrappers (Lba, QueueId, CoreId, TenantId) are explicit to
//     construct, ordered (usable as std::map keys - the repo bans unordered
//     containers on simulation state), and streamable for DD_CHECK context.
#ifndef DAREDEVIL_SRC_CORE_TYPES_H_
#define DAREDEVIL_SRC_CORE_TYPES_H_

#include <compare>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <string_view>

#include "src/sim/clock.h"

// Marks a function as part of the observability surface. Expands to nothing;
// it is an annotation for tools/ddanalyze, whose observer-purity pass takes
// every DD_OBSERVER function (plus all of src/stats/) as an entry point and
// proves it transitively writes no simulation-owned state (DESIGN.md §12).
// Annotate read-only accessors that reports and samplers call on scheduler /
// stack state so the pass guards them against someday growing side effects.
#define DD_OBSERVER

namespace daredevil {

// A span of simulated time, in ticks (nanoseconds).
class TickDuration {
 public:
  constexpr TickDuration() = default;
  explicit constexpr TickDuration(Tick ticks) : ticks_(ticks) {}

  constexpr Tick ticks() const { return ticks_; }

  constexpr TickDuration& operator+=(TickDuration d) {
    ticks_ += d.ticks_;
    return *this;
  }
  constexpr TickDuration& operator-=(TickDuration d) {
    ticks_ -= d.ticks_;
    return *this;
  }
  friend constexpr TickDuration operator+(TickDuration a, TickDuration b) {
    return TickDuration(a.ticks_ + b.ticks_);
  }
  friend constexpr TickDuration operator-(TickDuration a, TickDuration b) {
    return TickDuration(a.ticks_ - b.ticks_);
  }
  template <typename N>
  friend constexpr TickDuration operator*(TickDuration d, N n) {
    return TickDuration(d.ticks_ * static_cast<Tick>(n));
  }
  template <typename N>
  friend constexpr TickDuration operator*(N n, TickDuration d) {
    return TickDuration(static_cast<Tick>(n) * d.ticks_);
  }
  friend constexpr auto operator<=>(TickDuration, TickDuration) = default;

  // Time-point arithmetic: deadlines are `now + duration`.
  friend constexpr Tick operator+(Tick t, TickDuration d) {
    return t + d.ticks_;
  }
  friend constexpr Tick operator-(Tick t, TickDuration d) {
    return t - d.ticks_;
  }

  friend std::ostream& operator<<(std::ostream& os, TickDuration d) {
    return os << d.ticks_;
  }

 private:
  Tick ticks_ = 0;
};

inline constexpr TickDuration kZeroDuration{};

// The span between two time-points (what remains of an interval).
constexpr TickDuration DurationBetween(Tick from, Tick to) {
  return TickDuration(to - from);
}

constexpr double ToUs(TickDuration d) { return ToUs(d.ticks()); }
constexpr double ToMs(TickDuration d) { return ToMs(d.ticks()); }
constexpr double ToSec(TickDuration d) { return ToSec(d.ticks()); }

// An ordered, streamable, explicitly-constructed integer wrapper. Tag makes
// each instantiation a distinct type; Rep is the underlying representation.
template <typename Tag, typename Rep>
class StrongId {
 public:
  using rep = Rep;

  constexpr StrongId() = default;
  explicit constexpr StrongId(Rep v) : v_(v) {}

  constexpr Rep value() const { return v_; }

  friend constexpr auto operator<=>(StrongId, StrongId) = default;

  friend std::ostream& operator<<(std::ostream& os, StrongId id) {
    return os << id.v_;
  }

 private:
  Rep v_ = Rep{};
};

// A namespace-relative logical block address, in 4KB pages. Distinct from
// the device-global page number (uint64_t, derived via Device::GlobalPage).
using Lba = StrongId<struct LbaTag, uint64_t>;

// Advancing an LBA by a page count yields an LBA (request splitting).
constexpr Lba operator+(Lba lba, uint64_t pages) {
  return Lba(lba.value() + pages);
}

// An NVMe queue id (NSQ or NCQ index on the device).
using QueueId = StrongId<struct QueueIdTag, int>;

// A CPU core index on the simulated machine.
using CoreId = StrongId<struct CoreIdTag, int>;

// "No core": cross-core penalties are skipped for anonymous accesses.
inline constexpr CoreId kNoCore{-1};

// A tenant (process) id. Zero means "no tenant".
using TenantId = StrongId<struct TenantIdTag, uint64_t>;

inline constexpr TenantId kNoTenant{0};

// Completion status of an I/O, modeled on the NVMe status-field families the
// fault layer injects (src/fault/fault_plan.h). Lives in the vocabulary layer
// because both the device (CQE status) and the block layer (Request status,
// retry policy) speak it. kOk must stay 0: a zero-initialized command or
// request is a successful one, which is what keeps the empty-FaultPlan
// fingerprints byte-identical to the pre-fault simulator.
enum class IoStatus : uint8_t {
  kOk = 0,
  kMediaError,          // unrecovered flash read/program error
  kNamespaceNotReady,   // controller-side namespace fault
  kAborted,             // host abort reclaimed the command
  kTimedOut,            // watchdog expired with retries exhausted
  kDataLoss,            // recovery found the data torn or lost: acknowledged
                        // state that did not survive a crash (never returned
                        // on the live I/O path, only by post-crash recovery)
};

inline const char* IoStatusName(IoStatus s) {
  switch (s) {
    case IoStatus::kOk:
      return "ok";
    case IoStatus::kMediaError:
      return "media-error";
    case IoStatus::kNamespaceNotReady:
      return "ns-not-ready";
    case IoStatus::kAborted:
      return "aborted";
    case IoStatus::kTimedOut:
      return "timed-out";
    case IoStatus::kDataLoss:
      return "data-loss";
  }
  return "?";
}

// The stage stamps of one I/O along Figure 1's I/O service routine. Every
// record that carries them (Request, NvmeCommand, NvmeCompletion and the
// exporter's RequestRecord) holds one Timeline, so a copy between them is
// one assignment. The host stamps issue, submit, nsq_enqueue and complete;
// the device stamps the rest and carries the host's stamps through untouched.
// All are 0 until reached. A completed request that traversed the device has
// the full monotonic chain, in kTimelineStamps order.
struct Timeline {
  Tick issue = 0;        // tenant initiated the I/O (userspace)
  Tick submit = 0;       // entered the block layer
  Tick nsq_enqueue = 0;  // placed in its NSQ (after routing + lock)
  Tick doorbell = 0;     // doorbell rung: visible to the controller
  Tick fetch_start = 0;  // controller began fetching the command
  Tick fetch = 0;        // fetch/decompose finished
  Tick flash_start = 0;  // first page started on a flash chip
  Tick flash_end = 0;    // last page finished flash service
  Tick cqe_post = 0;     // completion posted to the bound NCQ
  Tick drain = 0;        // driver reaped the CQE (ISR drain or poll)
  Tick complete = 0;     // completion delivered back to userspace

  // True when the device-side stamps are present (split parents complete
  // via their children and never see the device directly).
  bool HasDeviceStamps() const {
    return fetch_start > 0 && flash_end > 0 && drain > 0 && complete > 0;
  }
};

// One stamp of the chain: its name (the lifecycle checker's messages) and
// its field.
struct TimelineStamp {
  std::string_view name;
  Tick Timeline::*field;
};

// The chain in stage order: the one list of the stamps.
inline constexpr TimelineStamp kTimelineStamps[] = {
    {"issue", &Timeline::issue},
    {"submit", &Timeline::submit},
    {"nsq_enqueue", &Timeline::nsq_enqueue},
    {"doorbell", &Timeline::doorbell},
    {"fetch_start", &Timeline::fetch_start},
    {"fetch", &Timeline::fetch},
    {"flash_start", &Timeline::flash_start},
    {"flash_end", &Timeline::flash_end},
    {"cqe_post", &Timeline::cqe_post},
    {"drain", &Timeline::drain},
    {"complete", &Timeline::complete},
};
static_assert(std::size(kTimelineStamps) * sizeof(Tick) == sizeof(Timeline),
              "every Timeline stamp needs a kTimelineStamps row");

// Post-crash durability view of one page: what the device's persisted-state
// snapshot holds after a crash collapse (src/nvme/device.h, DESIGN.md §13).
// Lives in the vocabulary layer because application recovery (src/apps/)
// consumes it without depending on device types: tests hand apps a
// `std::function<PersistedPageView(Lba)>` closed over the device.
struct PersistedPageView {
  bool present = false;  // a write to this page survived the crash
  uint64_t cid = 0;      // id of the write command whose data is persisted
  bool torn = false;     // partial persist: contents are detectably corrupt
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_CORE_TYPES_H_
