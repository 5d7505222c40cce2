#include "src/stats/trace_export.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <numeric>
#include <optional>

#include "src/core/invariant.h"
#include "src/stats/holb.h"
#include "src/stats/metrics.h"
#include "src/stats/slo.h"
#include "src/stats/state_sampler.h"

namespace daredevil {

// --- RequestTimelineLog ----------------------------------------------------

RequestTimelineLog::RequestTimelineLog(size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {}

void RequestTimelineLog::Append(const Request& rq, int irq_core, int ncq) {
  if (!rq.t.HasDeviceStamps()) {
    return;  // split parents complete via their children
  }
  RequestRecord rec;
  rec.id = rq.id;
  rec.tenant_id = rq.tenant != nullptr ? rq.tenant->id.value() : 0;
  rec.pages = rq.pages;
  rec.is_write = rq.is_write;
  rec.latency_sensitive =
      rq.tenant != nullptr && rq.tenant->IsLatencySensitive();
  rec.nsq = rq.routed_nsq;
  rec.ncq = ncq;
  rec.submit_core = rq.submit_core;
  rec.irq_core = irq_core;
  rec.complete_core = rq.tenant != nullptr ? rq.tenant->core : irq_core;
  rec.t = rq.t;

  ++total_;
  if (records_.size() == capacity_) {
    records_.pop_front();
  }
  records_.push_back(rec);
}

std::vector<RequestRecord> RequestTimelineLog::Records() const {
  std::vector<RequestRecord> out;
  out.reserve(records_.size());
  for (size_t i = 0; i < records_.size(); ++i) {
    out.push_back(records_[i]);
  }
  return out;
}

// --- Event building --------------------------------------------------------

namespace {

// A TraceLog event field: the name suffix, an arg value or the instant's tid.
enum class TraceField : uint8_t { kNone, kId, kA, kB };

// The signed fields: a, or else b.
int64_t FieldOf(const TraceEvent& te, TraceField field) {
  return field == TraceField::kA ? te.a : te.b;
}

// How a TraceLog event of one category renders as an instant (ChromeEventKind
// ::kTraceEvent): its track, its name and its args.
struct TraceCategoryRow {
  TraceCategory category;
  int pid = 0;  // 0: no instant; the records' events cover the category
  TraceField tid = TraceField::kNone;  // kNone: tid 0
  std::string_view name = {};
  TraceField suffix = TraceField::kNone;  // appended to the name
  struct Arg {
    std::string_view key = {};  // empty ends the list
    TraceField field = TraceField::kNone;
  } args[3] = {};
};

// One row per category, in enum order.
constexpr TraceCategoryRow kTraceCategoryRows[] = {
    {TraceCategory::kSubmit},
    {TraceCategory::kRoute},
    {TraceCategory::kDoorbell, kTracePidNsq, TraceField::kA, "doorbell",
     TraceField::kNone, {{"batch", TraceField::kB}}},
    {TraceCategory::kFetchStart},
    {TraceCategory::kFetch},
    {TraceCategory::kFlashStart},
    {TraceCategory::kFlashEnd},
    {TraceCategory::kComplete},
    {TraceCategory::kIrq, kTracePidHost, TraceField::kB, "irq NCQ",
     TraceField::kA},
    {TraceCategory::kDeliver},
    {TraceCategory::kSchedule},  // recorded by nothing
    // Migrations and fault-path events land on the control track: they are
    // rare, global in scope, and reading them against the NSQ/core tracks is
    // exactly how an injected fault's blast radius is attributed.
    {TraceCategory::kMigrate, kTracePidControl, TraceField::kNone,
     "migrate tenant", TraceField::kId,
     {{"a", TraceField::kA}, {"b", TraceField::kB}}},
    {TraceCategory::kFaultInject, kTracePidControl, TraceField::kNone,
     "fault-inject", TraceField::kNone,
     {{"id", TraceField::kId}, {"where", TraceField::kA},
      {"kind", TraceField::kB}}},
    {TraceCategory::kTimeout, kTracePidControl, TraceField::kNone,
     "timeout rq", TraceField::kId,
     {{"nsq", TraceField::kA}, {"attempt", TraceField::kB}}},
    {TraceCategory::kRetry, kTracePidControl, TraceField::kNone, "retry rq",
     TraceField::kId, {{"nsq", TraceField::kA}, {"attempt", TraceField::kB}}},
    {TraceCategory::kAbort, kTracePidControl, TraceField::kNone, "abort rq",
     TraceField::kId, {{"nsq", TraceField::kA}, {"attempt", TraceField::kB}}},
    {TraceCategory::kOther},
};
static_assert(std::size(kTraceCategoryRows) == kNumTraceCategories,
              "every TraceCategory needs a kTraceCategoryRows row");

constexpr bool RowsInEnumOrder() {
  for (size_t i = 0; i < std::size(kTraceCategoryRows); ++i) {
    if (static_cast<size_t>(kTraceCategoryRows[i].category) != i) {
      return false;
    }
  }
  return true;
}
static_assert(RowsInEnumOrder(), "kTraceCategoryRows must follow enum order");

const TraceCategoryRow& RowOf(TraceCategory category) {
  return kTraceCategoryRows[static_cast<size_t>(category)];
}

// Appends events in emission order.
class EventSink {
 public:
  explicit EventSink(std::vector<ChromeEvent>& out) : out_(out) {}

  ChromeEvent& Add(ChromeEventKind kind, char ph, Tick ts, int pid, int tid,
                   uint32_t ref = 0) {
    ChromeEvent& e = out_.emplace_back();
    e.kind = kind;
    e.ph = ph;
    e.ts = ts;
    e.pid = static_cast<uint8_t>(pid);
    e.tid = tid;
    e.ref = ref;
    return e;
  }
  // A 'b' at `begin` and its 'e' at `end`, both with async id `id`.
  void AddAsync(ChromeEventKind kind, Tick begin, Tick end, int pid,
                uint32_t ref, uint64_t id, uint32_t sub = 0) {
    ChromeEvent& b = Add(kind, 'b', begin, pid, 0, ref);
    b.id = id;
    b.sub = sub;
    ChromeEvent& e = Add(kind, 'e', end, pid, 0, ref);
    e.id = id;
    e.sub = sub;
  }
  void AddSlice(ChromeEventKind kind, Tick begin, Tick end, int pid, int tid,
                uint32_t ref) {
    Add(kind, 'X', begin, pid, tid, ref).dur = end > begin ? end - begin : 0;
  }

 private:
  std::vector<ChromeEvent>& out_;
};

void BuildMetadata(const TraceExportInput& input, EventSink& sink) {
  auto process = [&sink](int pid) {
    sink.Add(ChromeEventKind::kProcessName, 'M', 0, pid, 0);
  };
  auto thread = [&sink](int pid, int tid) {
    sink.Add(ChromeEventKind::kThreadName, 'M', 0, pid, tid);
  };
  process(kTracePidHost);
  for (int c = 0; c < input.num_cores; ++c) {
    thread(kTracePidHost, c);
  }
  // Only name NSQ tracks that actually carry events (128 idle tracks would
  // drown the view on a WS-M device).
  std::vector<bool> nsq_used(static_cast<size_t>(input.nr_nsq > 0 ? input.nr_nsq : 1),
                             false);
  auto mark = [&nsq_used](int nsq) {
    if (nsq >= 0 && static_cast<size_t>(nsq) < nsq_used.size()) {
      nsq_used[static_cast<size_t>(nsq)] = true;
    }
  };
  for (const RequestRecord& r : input.requests) {
    mark(r.nsq);
  }
  for (const TraceEvent& e : input.events) {
    if (e.category == TraceCategory::kRoute ||
        e.category == TraceCategory::kDoorbell) {
      mark(static_cast<int>(e.a));
    }
  }
  process(kTracePidNsq);
  for (size_t i = 0; i < nsq_used.size(); ++i) {
    if (nsq_used[i]) {
      thread(kTracePidNsq, static_cast<int>(i));
    }
  }
  process(kTracePidDevice);
  thread(kTracePidDevice, 0);
  process(kTracePidNcq);
  process(kTracePidRequests);
  process(kTracePidCounters);
  process(kTracePidControl);
  thread(kTracePidControl, 0);
  if (input.slo != nullptr && !input.slo->empty()) {
    process(kTracePidSlo);
    for (size_t tid = 0; tid < input.slo->tenants.size(); ++tid) {
      thread(kTracePidSlo, static_cast<int>(tid));
    }
  }
}

// Violation episodes as X slices and per-window fast burn rates as counters,
// one track per SLO-tracked tenant (map order = tid order).
void BuildSloEvents(const TraceExportInput& input, EventSink& sink) {
  if (input.slo == nullptr || input.slo->empty()) {
    return;
  }
  int tid = 0;
  for (const auto& [tenant, r] : input.slo->tenants) {
    for (size_t i = 0; i < r.episodes.size(); ++i) {
      const SloEpisode& ep = r.episodes[i];
      sink.Add(ChromeEventKind::kSloEpisode, 'X', ep.begin, kTracePidSlo, tid,
               static_cast<uint32_t>(i))
          .dur = ep.duration();
    }
    for (size_t i = 0; i < r.windows.size(); ++i) {
      sink.Add(ChromeEventKind::kSloBurn, 'C', r.windows[i].start,
               kTracePidSlo, tid, static_cast<uint32_t>(i));
    }
    ++tid;
  }
}

// Per-request nested async lifecycle slices plus the resource-track slices
// derived from the record set.
void BuildRequestEvents(const TraceExportInput& input,
                        const BlockingIntervals& intervals, EventSink& sink) {
  for (size_t i = 0; i < input.requests.size(); ++i) {
    const RequestRecord& r = input.requests[i];
    const auto ref = static_cast<uint32_t>(i);
    const Timeline& t = r.t;
    ChromeEvent& outer = sink.Add(ChromeEventKind::kRequest, 'b', t.issue,
                                  kTracePidRequests, 0, ref);
    outer.id = r.id;
    for (uint32_t s = 0; s < std::size(kStageSpans); ++s) {
      const Tick begin = t.*kStageSpans[s].begin;
      const Tick end = t.*kStageSpans[s].end;
      if (end < begin) {
        continue;  // defensive: a torn timeline must not unbalance b/e
      }
      sink.AddAsync(ChromeEventKind::kStage, begin, end, kTracePidRequests,
                    ref, r.id, s);
    }
    sink.Add(ChromeEventKind::kRequest, 'e', t.complete, kTracePidRequests, 0,
             ref)
        .id = r.id;

    // Flash service (overlaps across chips -> async under the device pid).
    sink.AddAsync(ChromeEventKind::kFlash, t.flash_start, t.flash_end,
                  kTracePidDevice, ref, r.id);
    // NCQ residency: completion posted -> drained by the driver.
    sink.AddAsync(ChromeEventKind::kCqe, t.cqe_post, t.drain, kTracePidNcq,
                  ref, r.id);
    // Host-core instants + the cross-core IRQ hop flow arrow.
    sink.Add(ChromeEventKind::kSubmit, 'i', t.submit, kTracePidHost,
             r.submit_core, ref);
    sink.Add(ChromeEventKind::kDrain, 'i', t.drain, kTracePidHost, r.irq_core,
             ref);
    sink.Add(ChromeEventKind::kComplete, 'i', t.complete, kTracePidHost,
             r.complete_core, ref);
    if (r.complete_core != r.irq_core) {
      sink.Add(ChromeEventKind::kIrqHop, 's', t.drain, kTracePidHost,
               r.irq_core, ref)
          .id = r.id;
      sink.Add(ChromeEventKind::kIrqHop, 'f', t.complete, kTracePidHost,
               r.complete_core, ref)
          .id = r.id;
    }
  }

  // NSQ head occupancy and the fetch engine, from the same derivation the
  // HOL analysis uses (holb.h): disjoint slices per track by construction.
  for (const BlockingIntervals::NsqHeads& nsq : intervals.nsqs()) {
    for (uint32_t k = 0; k < nsq.count; ++k) {
      const BlockingIntervals::Interval& iv = intervals.heads()[nsq.first + k];
      sink.AddSlice(ChromeEventKind::kNsqHead, iv.begin, iv.end, kTracePidNsq,
                    nsq.nsq, iv.record);
    }
  }
  for (const BlockingIntervals::Interval& iv : intervals.fetches()) {
    sink.AddSlice(ChromeEventKind::kFetch, iv.begin, iv.end, kTracePidDevice,
                  0, iv.record);
  }
}

void BuildTraceEventInstants(const TraceExportInput& input, EventSink& sink) {
  for (size_t i = 0; i < input.events.size(); ++i) {
    const TraceEvent& te = input.events[i];
    const TraceCategoryRow& row = RowOf(te.category);
    if (row.pid == 0) {
      continue;
    }
    const int tid =
        row.tid == TraceField::kNone ? 0 : static_cast<int>(FieldOf(te, row.tid));
    sink.Add(ChromeEventKind::kTraceEvent, 'i', te.at, row.pid, tid,
             static_cast<uint32_t>(i));
  }
}

void BuildCounterEvents(const TraceExportInput& input, EventSink& sink) {
  if (input.sampler == nullptr) {
    return;
  }
  const auto& times = input.sampler->times();
  uint32_t series = 0;
  for (const auto& [name, values] : input.sampler->series()) {
    const uint32_t index = series++;
    bool all_zero = true;
    for (double v : values) {
      if (v != 0.0) {
        all_zero = false;
        break;
      }
    }
    if (all_zero) {
      continue;
    }
    for (size_t i = 0; i < times.size() && i < values.size(); ++i) {
      sink.Add(ChromeEventKind::kCounter, 'C', times[i], kTracePidCounters, 0,
               static_cast<uint32_t>(i))
          .sub = index;
    }
  }
}

// The export order of `events`: the metadata prefix as emitted, then the
// data events by a stable LSD radix sort on the signed timestamp, so equal
// timestamps keep emission order (which preserves begin/end pairing within
// each request's nested async slices). A 16-bit digit on which all keys
// agree is skipped, so a run shorter than 2^32 ns takes two passes.
std::vector<uint32_t> TimestampOrder(const std::vector<ChromeEvent>& events) {
  constexpr int kDigitBits = 16;
  constexpr uint64_t kMask = (uint64_t{1} << kDigitBits) - 1;
  DD_CHECK(events.size() <= UINT32_MAX) << events.size() << " trace events";
  std::vector<uint32_t> order(events.size());
  std::iota(order.begin(), order.end(), 0u);
  size_t first = 0;
  while (first < events.size() && events[first].ph == 'M') {
    ++first;
  }
  const size_t n = events.size() - first;
  if (n < 2) {
    return order;
  }
  std::vector<uint64_t> keys(n);
  uint64_t any = 0;
  uint64_t all = ~uint64_t{0};
  for (size_t i = 0; i < n; ++i) {
    // Flipping the sign bit maps signed tick order onto unsigned key order.
    const uint64_t key =
        static_cast<uint64_t>(events[first + i].ts) ^ (uint64_t{1} << 63);
    keys[i] = key;
    any |= key;
    all &= key;
  }
  const uint64_t varying = any ^ all;  // the bits some keys differ in
  std::vector<uint64_t> keys_out(n);
  std::vector<uint32_t> index_out(n);
  // Bucket counts, then positions: one heap array for every pass.
  std::vector<uint32_t> next(kMask + 1);
  uint32_t* index = order.data() + first;
  uint32_t* index_next = index_out.data();
  for (int shift = 0; shift < 64; shift += kDigitBits) {
    if (((varying >> shift) & kMask) == 0) {
      continue;
    }
    std::fill(next.begin(), next.end(), 0u);
    for (const uint64_t key : keys) {
      ++next[(key >> shift) & kMask];
    }
    uint32_t sum = 0;
    for (uint32_t& c : next) {
      const uint32_t count = c;
      c = sum;
      sum += count;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint32_t pos = next[(keys[i] >> shift) & kMask]++;
      keys_out[pos] = keys[i];
      index_next[pos] = index[i];
    }
    keys.swap(keys_out);
    std::swap(index, index_next);
  }
  // The result stays in `order`, the oldest of these buffers: the scratch
  // freed above it can then be reused for the document, where freed scratch
  // below a later buffer would stay resident beside it (+3.7 MB peak RSS in
  // perfbench's blkmq-slo workload).
  if (index != order.data() + first) {
    std::copy(index, index + n, order.data() + first);
  }
  return order;
}

}  // namespace

// The event list is the export's largest array besides the document.
static_assert(sizeof(ChromeEvent) == 40, "ChromeEvent grew");

std::vector<ChromeEvent> EmitChromeEvents(const TraceExportInput& input) {
  // Built before the event vector is reserved: allocated after it, these
  // short-lived arrays left the heap fragmented (peak RSS 43 -> 51 MB in
  // perfbench's blkmq-slo workload on a 4-core VM).
  std::optional<BlockingIntervals> own;
  const BlockingIntervals& intervals = input.intervals != nullptr
                                           ? *input.intervals
                                           : own.emplace(input.requests);
  // At most 25 events per record (lifecycle, resource tracks, instants).
  size_t capacity = input.requests.size() * 25 + input.events.size() +
                    static_cast<size_t>(std::max(input.num_cores, 0)) +
                    static_cast<size_t>(std::max(input.nr_nsq, 0)) + 16;
  if (input.sampler != nullptr) {
    capacity += input.sampler->times().size() * input.sampler->series().size();
  }
  if (input.slo != nullptr) {
    for (const auto& [tenant, r] : input.slo->tenants) {
      capacity += 1 + r.episodes.size() + r.windows.size();
    }
  }
  std::vector<ChromeEvent> events;
  events.reserve(capacity);
  EventSink sink(events);
  BuildMetadata(input, sink);
  BuildRequestEvents(input, intervals, sink);
  BuildTraceEventInstants(input, sink);
  BuildCounterEvents(input, sink);
  BuildSloEvents(input, sink);
  return events;
}

std::vector<ChromeEvent> BuildChromeEvents(const TraceExportInput& input) {
  const std::vector<ChromeEvent> emitted = EmitChromeEvents(input);
  std::vector<ChromeEvent> events;
  events.reserve(emitted.size());
  for (const uint32_t i : TimestampOrder(emitted)) {
    events.push_back(emitted[i]);
  }
  return events;
}

// --- Rendering ---------------------------------------------------------------

// Writes the trace straight into a std::string. Before each item (an event,
// the document's frame) the caller reserves kRoom bytes; the fixed-size
// writes after it (literals, integers, ticks, doubles, single characters)
// then copy without checks. A string of any length reserves its
// own bound plus kRoom, so the fixed writes after it stay covered. The
// string's size runs at most one growth step ahead of the bytes written, so
// only pages about to be written are touched; Finish trims it. Invariant
// builds check every write against the reserved end.
class JsonCursor {
 public:
  // The longest fixed-size run between two reservations: an event, under
  // 300 bytes.
  static constexpr size_t kRoom = 1024;

  explicit JsonCursor(std::string& out)
      : out_(out), p_(out.data() + out.size()), end_(p_) {}

  void Reserve(size_t n) {
    if (static_cast<size_t>(end_ - p_) < n) {
      Grow(n);
    }
  }

  template <size_t N>
  void Lit(const char (&s)[N]) {
    Copy(s, N - 1);
  }
  void Put(char c) {
    Claim(1);
    *p_++ = c;
  }
  // std::to_chars: the digits of printf's %lld / %llu.
  template <typename Integer>
  void Int(Integer v) {
    Claim(20);
    p_ = std::to_chars(p_, end_, v).ptr;
  }
  // The same digits for an integer that is mostly below 100 (pids, tids,
  // queue ids, page counts): one or two digits without to_chars.
  template <typename Integer>
  void Small(Integer v) {
    const auto u = static_cast<uint64_t>(v);  // a negative v fails u < 100
    if (u >= 100) {
      Int(v);
      return;
    }
    Claim(2);
    if (u >= 10) {
      *p_++ = static_cast<char>('0' + u / 10);
    }
    *p_++ = static_cast<char>('0' + u % 10);
  }
  // "%.15g" keeps integer-valued doubles exact.
  void Double(double v) {
    Claim(32);
    p_ += std::snprintf(p_, 32, "%.15g", v);
  }
  // Chrome trace timestamps are microseconds; ticks are nanoseconds. Fixed
  // sign-and-magnitude "[-]<us>.<ns%1000>" formatting keeps the export
  // byte-deterministic (no floating-point rounding in play): for ns >= 0,
  // printf's "%lld.%03lld" of (ns / 1000, ns % 1000), digit for digit;
  // -1500 ns renders "-1.500" and -500 ns "-0.500".
  void Micros(Tick ns) {
    uint64_t mag = static_cast<uint64_t>(ns);
    if (ns < 0) {
      Put('-');
      mag = 0 - mag;  // |ns|, INT64_MIN included
    }
    Int(mag / 1000);
    Put('.');
    const uint64_t frac = mag % 1000;
    Claim(3);
    p_[0] = static_cast<char>('0' + frac / 100);
    p_[1] = static_cast<char>('0' + frac / 10 % 10);
    p_[2] = static_cast<char>('0' + frac % 10);
    p_ += 3;
  }

  // Verbatim (already escaped) text.
  void Text(std::string_view s) {
    Reserve(s.size() + kRoom);
    Copy(s.data(), s.size());
  }
  // The first `n` bytes of `s` by one copy of kSpan bytes, which kRoom
  // covers: kSpan bytes must be readable at `s`. The bytes copied past `n`
  // are overwritten by the next write or trimmed by Finish.
  template <size_t kSpan>
  void Span(const char* s, size_t n) {
    DD_CHECK(n <= kSpan) << "JsonCursor: a span of " << n << " bytes";
    Claim(kSpan);
    std::memcpy(p_, s, kSpan);
    p_ += n;
  }
  void Escaped(std::string_view s) {
    Reserve(kJsonEscapeGrowth * s.size() + kRoom);
    p_ = WriteJsonEscaped(p_, s);
  }

  // Trims the string to the bytes written.
  void Finish() { out_.resize(static_cast<size_t>(p_ - out_.data())); }

 private:
  // How far the size runs ahead of the written bytes: small enough that the
  // zeroes resize writes are still cached when they are overwritten.
  static constexpr size_t kGrowStep = 16 << 10;

  void Claim(size_t n) const {
    DD_CHECK(static_cast<size_t>(end_ - p_) >= n)
        << "JsonCursor: a write past the reserved bound";
  }
  void Copy(const char* s, size_t n) {
    Claim(n);
    std::memcpy(p_, s, n);
    p_ += n;
  }
  void Grow(size_t n) {
    const size_t used = static_cast<size_t>(p_ - out_.data());
    // At least `n`, else one step, but no more than has been written so
    // far, so a short string stays short.
    out_.resize(used + std::max(n, std::min(used, kGrowStep)));
    p_ = out_.data() + used;
    end_ = out_.data() + out_.size();
  }

  std::string& out_;
  char* p_;
  char* end_;
};

namespace {

// The id renders unsigned, a and b signed.
void WriteField(JsonCursor& w, const TraceEvent& te, TraceField field) {
  if (field == TraceField::kId) {
    w.Int(te.id);
  } else {
    w.Int(FieldOf(te, field));
  }
}

// The longest request label: "rq " + 20 id digits + " L " + 10 page digits
// + "p W".
constexpr size_t kMaxLabelSize = 3 + 20 + 3 + 10 + 3;
// The fixed copies of a label and of its id digits (at +3), both read from
// the label's start in the text arena, which ends in kLabelSpan bytes of
// padding.
constexpr size_t kLabelSpan = 40;
constexpr size_t kIdSpan = 24;
static_assert(kMaxLabelSize <= kLabelSpan && 3 + kIdSpan <= kLabelSpan);

// The stage slice names in fixed slots, each written by one copy of the
// slot (a name longer than its slot does not compile).
struct StageName {
  char text[16] = {};
  uint8_t size = 0;
};
constexpr std::array<StageName, kNumStages> MakeStageNames() {
  std::array<StageName, kNumStages> names{};
  for (size_t s = 0; s < names.size(); ++s) {
    const std::string_view name = kStageSpans[s].trace_name;
    for (size_t i = 0; i < name.size(); ++i) {
      names[s].text[i] = name[i];
    }
    names[s].size = static_cast<uint8_t>(name.size());
  }
  return names;
}
constexpr std::array<StageName, kNumStages> kStageNames = MakeStageNames();

constexpr char kNoId[kIdSpan] = {};  // readable for the id's fixed copy

// Ends an event's name and writes what comes before its args: the category
// (none for ""), the async or flow id (`id`: the record's id digits in the
// text arena, the only id an event carries) and a flow's binding point.
// Returns the category.
template <size_t N>
std::string_view CloseName(JsonCursor& w, const ChromeEvent& e,
                           const char (&cat)[N],
                           std::string_view id = {kNoId, 0}) {
  w.Put('"');
  if constexpr (N > 1) {
    w.Lit(",\"cat\":\"");
    w.Lit(cat);
    w.Put('"');
  }
  if (e.has_id()) {
    DD_CHECK(!id.empty()) << "an event with an id but no request record";
    w.Lit(",\"id\":\"");
    w.Span<kIdSpan>(id.data(), id.size());
    w.Put('"');
  }
  if (e.ph == 's' || e.ph == 'f') {
    // Legacy flow finish binds to the enclosing slice.
    w.Lit(",\"bp\":\"e\"");
  }
  return {cat, N - 1};
}

std::string TenantName(const TraceExportInput& input, uint64_t tenant_id) {
  auto it = input.tenant_names.find(tenant_id);
  if (it != input.tenant_names.end()) {
    return it->second;
  }
  return "tenant" + std::to_string(tenant_id);
}

std::string JsonEscaped(std::string_view s) {
  std::string out(kJsonEscapeGrowth * s.size(), '\0');
  const char* end = WriteJsonEscaped(out.data(), s);
  out.resize(static_cast<size_t>(end - out.data()));
  return out;
}

}  // namespace

ChromeEventRenderer::ChromeEventRenderer(const TraceExportInput& input)
    : input_(input) {
  // Each tenant's JSON string literal and (once placed) its offset in text_.
  std::map<uint64_t, std::pair<std::string, size_t>> tenants;
  size_t tenant_bytes = 0;
  for (const RequestRecord& r : input.requests) {
    if (tenants.count(r.tenant_id) == 0) {
      std::string quoted =
          '"' + JsonEscaped(TenantName(input, r.tenant_id)) + '"';
      tenant_bytes += quoted.size();
      tenants.emplace(r.tenant_id, std::make_pair(std::move(quoted), 0));
    }
  }
  text_.reserve(tenant_bytes + input.requests.size() * kMaxLabelSize +
                kLabelSpan);
  for (auto& entry : tenants) {
    entry.second.second = text_.size();
    text_ += entry.second.first;
  }
  records_.reserve(input.requests.size());
  for (const RequestRecord& r : input.requests) {
    const std::pair<std::string, size_t>& tenant = tenants.at(r.tenant_id);
    const std::string& quoted = tenant.first;
    const size_t at = tenant.second;
    char label[kMaxLabelSize];
    std::memcpy(label, "rq ", 3);
    char* p = std::to_chars(label + 3, label + 3 + 20, r.id).ptr;
    const auto id_size = static_cast<uint8_t>(p - (label + 3));
    std::memcpy(p, r.latency_sensitive ? " L " : " T ", 3);
    p = std::to_chars(p + 3, p + 3 + 10, r.pages).ptr;
    std::memcpy(p, r.is_write ? "p W" : "p R", 3);
    p += 3;
    RecordText& rt = records_.emplace_back();
    rt.label = text_.size();
    rt.tenant = at;
    rt.tenant_size = static_cast<uint32_t>(quoted.size());
    rt.label_size = static_cast<uint8_t>(p - label);
    rt.id_size = id_size;
    text_.append(label, rt.label_size);
  }
  text_.append(kLabelSpan, '\0');  // the fixed copies' padding
  if (input.slo != nullptr) {
    for (const auto& [tenant, report] : input.slo->tenants) {
      slo_.emplace_back(JsonEscaped(tenant), &report);
    }
  }
  if (input.sampler != nullptr) {
    for (const auto& [name, values] : input.sampler->series()) {
      series_.emplace_back(JsonEscaped(name), &values);
    }
  }
}

void ChromeEventRenderer::WriteLabel(JsonCursor& w,
                                     const RecordText& rt) const {
  w.Span<kLabelSpan>(text_.data() + rt.label, rt.label_size);
}

void ChromeEventRenderer::WriteId(JsonCursor& w, const RecordText& rt) const {
  const std::string_view id = IdDigits(rt);
  w.Span<kIdSpan>(id.data(), id.size());
}

std::string_view ChromeEventRenderer::Render(const ChromeEvent& e,
                                             JsonCursor& w) const {
  // The record and its text, for the request kinds.
  const bool has_record = e.ref < records_.size();
  const RequestRecord* r = has_record ? &input_.requests[e.ref] : nullptr;
  const RecordText* rt = has_record ? &records_[e.ref] : nullptr;
  DD_CHECK(!e.has_id() || (r != nullptr && e.id == r->id))
      << "an event's id is its request record's id";
  w.Lit("{\"ph\":\"");
  w.Put(e.ph);
  w.Put('"');
  if (e.ph != 'M') {
    w.Lit(",\"ts\":");
    w.Micros(e.ts);
  }
  if (e.ph == 'X') {
    w.Lit(",\"dur\":");
    w.Micros(e.dur);
  }
  w.Lit(",\"pid\":");
  w.Small(e.pid);
  w.Lit(",\"tid\":");
  w.Small(e.tid);
  w.Lit(",\"name\":\"");
  std::string_view cat;
  switch (e.kind) {
    case ChromeEventKind::kProcessName:
      w.Lit("process_name");
      cat = CloseName(w, e, "");
      w.Lit(",\"args\":{\"name\":\"");
      WriteTrackName(w, e);
      w.Lit("\"}");
      break;
    case ChromeEventKind::kThreadName:
      w.Lit("thread_name");
      cat = CloseName(w, e, "");
      w.Lit(",\"args\":{\"name\":\"");
      WriteTrackName(w, e);
      w.Lit("\"}");
      break;
    case ChromeEventKind::kRequest:
      WriteLabel(w, *rt);
      cat = CloseName(w, e, "rq", IdDigits(*rt));
      if (e.ph == 'b') {  // the end event carries no args
        w.Lit(",\"args\":{\"tenant\":");
        w.Text(QuotedTenant(*rt));
        w.Lit(",\"nsq\":");
        w.Small(r->nsq);
        w.Lit(",\"ncq\":");
        w.Small(r->ncq);
        w.Lit(",\"pages\":");
        w.Small(r->pages);
        w.Put('}');
      }
      break;
    case ChromeEventKind::kStage:
      w.Span<sizeof(StageName::text)>(kStageNames[e.sub].text,
                                      kStageNames[e.sub].size);
      cat = CloseName(w, e, "rq", IdDigits(*rt));
      break;
    case ChromeEventKind::kFlash:
      w.Lit("flash ");
      WriteLabel(w, *rt);
      cat = CloseName(w, e, "flash", IdDigits(*rt));
      break;
    case ChromeEventKind::kCqe:
      w.Lit("cqe ");
      WriteLabel(w, *rt);
      w.Lit(" NCQ");
      w.Small(r->ncq);
      cat = CloseName(w, e, "cqe", IdDigits(*rt));
      break;
    case ChromeEventKind::kSubmit:
      w.Lit("submit rq");
      WriteId(w, *rt);
      cat = CloseName(w, e, "");
      break;
    case ChromeEventKind::kDrain:
      w.Lit("drain rq");
      WriteId(w, *rt);
      cat = CloseName(w, e, "");
      break;
    case ChromeEventKind::kComplete:
      w.Lit("complete rq");
      WriteId(w, *rt);
      cat = CloseName(w, e, "");
      break;
    case ChromeEventKind::kIrqHop:
      w.Lit("irq-hop");
      cat = CloseName(w, e, "irq-hop", IdDigits(*rt));
      break;
    case ChromeEventKind::kNsqHead:
      WriteLabel(w, *rt);
      cat = CloseName(w, e, "");
      w.Lit(",\"args\":{\"tenant\":");
      w.Text(QuotedTenant(*rt));
      w.Lit(",\"pages\":");
      w.Small(r->pages);
      w.Put('}');
      break;
    case ChromeEventKind::kFetch:
      w.Lit("fetch ");
      WriteLabel(w, *rt);
      cat = CloseName(w, e, "");
      w.Lit(",\"args\":{\"nsq\":");
      w.Small(r->nsq);
      w.Put('}');
      break;
    case ChromeEventKind::kTraceEvent: {
      const TraceEvent& te = input_.events[e.ref];
      const TraceCategoryRow& row = RowOf(te.category);
      w.Text(row.name);
      if (row.suffix != TraceField::kNone) {
        WriteField(w, te, row.suffix);
      }
      cat = CloseName(w, e, "");
      for (size_t i = 0; i < std::size(row.args) && !row.args[i].key.empty();
           ++i) {
        if (i == 0) {
          w.Lit(",\"args\":{\"");
        } else {
          w.Lit(",\"");
        }
        w.Text(row.args[i].key);
        w.Lit("\":");
        WriteField(w, te, row.args[i].field);
      }
      if (!row.args[0].key.empty()) {
        w.Put('}');
      }
      break;
    }
    case ChromeEventKind::kCounter: {
      const auto& [name, values] = series_[e.sub];
      w.Text(name);
      cat = CloseName(w, e, "");
      w.Lit(",\"args\":{\"value\":");
      w.Double((*values)[e.ref]);
      w.Put('}');
      break;
    }
    case ChromeEventKind::kSloEpisode: {
      const auto& [tenant, report] = slo_[static_cast<size_t>(e.tid)];
      const SloEpisode& ep = report->episodes[e.ref];
      w.Lit("SLO violation ");
      w.Text(tenant);
      cat = CloseName(w, e, "slo");
      w.Lit(",\"args\":{\"peak_burn\":");
      w.Double(ep.peak_burn);
      w.Lit(",\"bad\":");
      w.Int(ep.bad);
      w.Lit(",\"total\":");
      w.Int(ep.total);
      w.Lit(",\"blame\":\"");
      w.Escaped(ep.blame.empty() ? std::string_view("unattributed")
                                 : std::string_view(ep.blame));
      w.Lit("\",\"mechanism\":\"");
      w.Escaped(ep.mechanism);
      w.Lit("\"}");
      break;
    }
    case ChromeEventKind::kSloBurn: {
      const auto& [tenant, report] = slo_[static_cast<size_t>(e.tid)];
      const SloWindow& win = report->windows[e.ref];
      w.Lit("burn ");
      w.Text(tenant);
      cat = CloseName(w, e, "");
      w.Lit(",\"args\":{\"fast\":");
      w.Double(win.fast_burn);
      w.Lit(",\"slow\":");
      w.Double(win.slow_burn);
      w.Put('}');
      break;
    }
  }
  w.Put('}');
  return cat;
}

std::string_view ChromeEventRenderer::AppendJson(std::string& out,
                                                 const ChromeEvent& e) const {
  JsonCursor w(out);
  w.Reserve(JsonCursor::kRoom);
  const std::string_view cat = Render(e, w);
  w.Finish();
  return cat;
}

std::string ChromeEventRenderer::Name(const ChromeEvent& e) const {
  std::string json;
  AppendJson(json, e);
  // The name is the first string value; it ends at its first unescaped quote.
  constexpr std::string_view kKey = "\"name\":\"";
  const size_t begin = json.find(kKey) + kKey.size();
  size_t end = begin;
  while (json[end] != '"') {
    end += json[end] == '\\' ? 2 : 1;
  }
  return json.substr(begin, end - begin);
}

std::string_view ChromeEventRenderer::Category(const ChromeEvent& e) const {
  std::string json;
  return AppendJson(json, e);
}

void ChromeEventRenderer::WriteTrackName(JsonCursor& w,
                                         const ChromeEvent& e) const {
  if (e.kind == ChromeEventKind::kProcessName) {
    switch (e.pid) {
      case kTracePidHost:
        w.Lit("host (");
        w.Escaped(input_.stack_name);
        w.Put(')');
        return;
      case kTracePidNsq:
        w.Lit("NSQ head occupancy");
        return;
      case kTracePidDevice:
        w.Lit("device controller");
        return;
      case kTracePidNcq:
        w.Lit("NCQ residency");
        return;
      case kTracePidRequests:
        w.Lit("request lifecycles");
        return;
      case kTracePidCounters:
        w.Lit("sampled state");
        return;
      case kTracePidControl:
        w.Lit("stack control");
        return;
      case kTracePidSlo:
        w.Lit("SLO conformance");
        return;
    }
    return;
  }
  switch (e.pid) {
    case kTracePidHost:
      w.Lit("core ");
      w.Small(e.tid);
      return;
    case kTracePidNsq: {
      auto it = input_.nsq_labels.find(e.tid);
      if (it != input_.nsq_labels.end()) {
        w.Escaped(it->second);
      } else {
        w.Lit("NSQ ");
        w.Small(e.tid);
      }
      return;
    }
    case kTracePidDevice:
      w.Lit("fetch engine");
      return;
    case kTracePidControl:
      w.Lit("scheduling");
      return;
    case kTracePidSlo:
      w.Lit("SLO ");
      w.Text(slo_[static_cast<size_t>(e.tid)].first);
      return;
  }
}

// --- Serialization ---------------------------------------------------------

std::string SerializeChromeTrace(const TraceExportInput& input) {
  const std::vector<ChromeEvent> events = EmitChromeEvents(input);
  // Ordered before the document is allocated, so the sort's scratch is gone
  // by then and cannot fragment the heap under it.
  const std::vector<uint32_t> order = TimestampOrder(events);
  const ChromeEventRenderer renderer(input);
  // Reserved from the document's typical shape (~110 bytes per event); the
  // cursor touches pages only as it writes them.
  std::string doc;
  doc.reserve(events.size() * 128 + 1024);
  JsonCursor w(doc);
  w.Reserve(JsonCursor::kRoom);
  w.Lit("{\"displayTimeUnit\":\"ns\",\"otherData\":{\"stack\":\"");
  w.Escaped(input.stack_name);
  w.Lit("\",\"num_cores\":");
  w.Int(input.num_cores);
  w.Lit(",\"nr_nsq\":");
  w.Int(input.nr_nsq);
  w.Lit(",\"nr_ncq\":");
  w.Int(input.nr_ncq);
  w.Lit(",\"trace_events\":");
  w.Int(input.events.size());
  w.Lit(",\"request_records\":");
  w.Int(input.requests.size());
  w.Lit("},\"traceEvents\":[");
  for (size_t i = 0; i < order.size(); ++i) {
    w.Reserve(JsonCursor::kRoom);
    if (i > 0) {
      w.Put(',');
    }
    renderer.Render(events[order[i]], w);
  }
  w.Reserve(JsonCursor::kRoom);
  w.Lit("]}");
  w.Finish();
  return doc;
}

// --- JSON validation -------------------------------------------------------

namespace {

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  bool Check(std::string* error) {
    SkipWs();
    if (!Value(0)) {
      Fail(error);
      return false;
    }
    SkipWs();
    if (pos_ != s_.size()) {
      err_ = "trailing data";
      Fail(error);
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 256;

  void Fail(std::string* error) const {
    if (error != nullptr) {
      *error = err_ + " at offset " + std::to_string(pos_);
    }
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view lit) {
    if (s_.compare(pos_, lit.size(), lit) != 0) {
      err_ = "bad literal";
      return false;
    }
    pos_ += lit.size();
    return true;
  }

  bool String() {
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      err_ = "expected string";
      return false;
    }
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) {
          break;
        }
        const char esc = s_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              err_ = "bad \\u escape";
              return false;
            }
          }
        } else if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
                   esc != 'f' && esc != 'n' && esc != 'r' && esc != 't') {
          err_ = "bad escape";
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        err_ = "raw control char in string";
        return false;
      }
      ++pos_;
    }
    err_ = "unterminated string";
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start || (s_[start] == '-' && pos_ == start + 1)) {
      err_ = "bad number";
      return false;
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (pos_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        err_ = "bad fraction";
        return false;
      }
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        err_ = "bad exponent";
        return false;
      }
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    return true;
  }

  bool Value(int depth) {
    if (depth > kMaxDepth) {
      err_ = "nesting too deep";
      return false;
    }
    if (pos_ >= s_.size()) {
      err_ = "unexpected end";
      return false;
    }
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipWs();
        if (!String()) {
          return false;
        }
        SkipWs();
        if (pos_ >= s_.size() || s_[pos_] != ':') {
          err_ = "expected ':'";
          return false;
        }
        ++pos_;
        SkipWs();
        if (!Value(depth + 1)) {
          return false;
        }
        SkipWs();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == '}') {
          ++pos_;
          return true;
        }
        err_ = "expected ',' or '}'";
        return false;
      }
    }
    if (c == '[') {
      ++pos_;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipWs();
        if (!Value(depth + 1)) {
          return false;
        }
        SkipWs();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == ']') {
          ++pos_;
          return true;
        }
        err_ = "expected ',' or ']'";
        return false;
      }
    }
    if (c == '"') {
      return String();
    }
    if (c == 't') {
      return Literal("true");
    }
    if (c == 'f') {
      return Literal("false");
    }
    if (c == 'n') {
      return Literal("null");
    }
    return Number();
  }

  std::string_view s_;
  size_t pos_ = 0;
  std::string err_ = "invalid JSON";
};

}  // namespace

bool JsonLooksValid(std::string_view json, std::string* error) {
  return JsonChecker(json).Check(error);
}

}  // namespace daredevil
