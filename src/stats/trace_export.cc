#include "src/stats/trace_export.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstddef>
#include <cstdio>
#include <iterator>

#include "src/stats/holb.h"
#include "src/stats/metrics.h"
#include "src/stats/slo.h"
#include "src/stats/state_sampler.h"

namespace daredevil {

// --- RequestTimelineLog ----------------------------------------------------

RequestTimelineLog::RequestTimelineLog(size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {}

void RequestTimelineLog::Append(const Request& rq, int irq_core, int ncq) {
  if (!rq.HasDeviceTimeline()) {
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
  rec.issue = rq.issue_time;
  rec.submit = rq.submit_time;
  rec.nsq_enqueue = rq.nsq_enqueue_time;
  rec.doorbell = rq.doorbell_time;
  rec.fetch_start = rq.fetch_start_time;
  rec.fetch = rq.fetch_time;
  rec.flash_start = rq.flash_start_time;
  rec.flash_end = rq.flash_end_time;
  rec.cqe_post = rq.cqe_post_time;
  rec.drain = rq.drain_time;
  rec.complete = rq.complete_time;

  ++total_;
  if (records_.size() < capacity_) {
    records_.push_back(rec);
    return;
  }
  full_ = true;
  ++dropped_;
  records_[head_] = rec;
  head_ = (head_ + 1) % capacity_;
}

std::vector<RequestRecord> RequestTimelineLog::Records() const {
  if (!full_) {
    return records_;
  }
  std::vector<RequestRecord> out;
  out.reserve(records_.size());
  for (size_t i = 0; i < records_.size(); ++i) {
    out.push_back(records_[(head_ + i) % records_.size()]);
  }
  return out;
}

// --- Event building --------------------------------------------------------

namespace {

// Lifecycle stages of a request's nested async slices (ChromeEventKind::
// kStage, `sub` indexes this table).
struct Stage {
  const char* name;
  Tick RequestRecord::*begin;
  Tick RequestRecord::*end;
};
constexpr Stage kStages[] = {
    {"submit", &RequestRecord::issue, &RequestRecord::nsq_enqueue},
    {"nsq-wait", &RequestRecord::nsq_enqueue, &RequestRecord::fetch_start},
    {"fetch", &RequestRecord::fetch_start, &RequestRecord::fetch},
    {"flash", &RequestRecord::fetch, &RequestRecord::flash_end},
    {"completion-wait", &RequestRecord::flash_end, &RequestRecord::drain},
    {"delivery", &RequestRecord::drain, &RequestRecord::complete},
};

// A TraceLog event field: the name suffix, an arg value or the instant's tid.
enum class TraceField : uint8_t { kNone, kId, kA, kB };

// The signed fields: a, or else b.
int64_t FieldOf(const TraceEvent& te, TraceField field) {
  return field == TraceField::kA ? te.a : te.b;
}

// The id renders unsigned, a and b signed.
void AppendField(std::string& out, const TraceEvent& te, TraceField field) {
  if (field == TraceField::kId) {
    AppendJsonUInt(out, te.id);
  } else {
    AppendJsonInt(out, FieldOf(te, field));
  }
}

// How a TraceLog event of one category renders as an instant (ChromeEventKind
// ::kTraceEvent): its track, its name and its args.
struct TraceCategoryRow {
  TraceCategory category;
  int pid = 0;  // 0: no instant; the record slices cover the category
  TraceField tid = TraceField::kNone;  // kNone: tid 0
  const char* name = "";
  TraceField suffix = TraceField::kNone;  // appended to the name
  struct Arg {
    const char* key = nullptr;  // nullptr ends the list
    TraceField field = TraceField::kNone;
  } args[3] = {};
  // Redundant with record-derived instants when records exist (and the
  // trace ring may have dropped its oldest events, so records win).
  bool dropped_with_records = false;
};

// One row per category, in enum order.
constexpr TraceCategoryRow kTraceCategoryRows[] = {
    {TraceCategory::kSubmit, kTracePidHost, TraceField::kA, "submit rq",
     TraceField::kId, {}, true},
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
    {TraceCategory::kDeliver, kTracePidHost, TraceField::kA, "deliver rq",
     TraceField::kId, {}, true},
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

// Appends events in emission order, stamping each with its emission index.
class EventSink {
 public:
  explicit EventSink(std::vector<ChromeEvent>& out) : out_(out) {}

  ChromeEvent& Add(ChromeEventKind kind, char ph, Tick ts, int pid, int tid,
                   uint32_t ref = 0) {
    ChromeEvent& e = out_.emplace_back();
    e.kind = kind;
    e.ph = ph;
    e.ts = ts;
    e.pid = pid;
    e.tid = tid;
    e.ref = ref;
    e.seq = static_cast<uint32_t>(out_.size() - 1);
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
    ChromeEvent& outer =
        sink.Add(ChromeEventKind::kRequest, 'b', r.issue, kTracePidRequests, 0, ref);
    outer.id = r.id;
    for (uint32_t s = 0; s < std::size(kStages); ++s) {
      const Tick begin = r.*(kStages[s].begin);
      const Tick end = r.*(kStages[s].end);
      if (end < begin) {
        continue;  // defensive: a torn timeline must not unbalance b/e
      }
      sink.AddAsync(ChromeEventKind::kStage, begin, end, kTracePidRequests,
                    ref, r.id, s);
    }
    sink.Add(ChromeEventKind::kRequest, 'e', r.complete, kTracePidRequests, 0,
             ref)
        .id = r.id;

    // Flash service (overlaps across chips -> async under the device pid).
    sink.AddAsync(ChromeEventKind::kFlash, r.flash_start, r.flash_end,
                  kTracePidDevice, ref, r.id);
    // NCQ residency: completion posted -> drained by the driver.
    sink.AddAsync(ChromeEventKind::kCqe, r.cqe_post, r.drain, kTracePidNcq,
                  ref, r.id);
    // Host-core instants + the cross-core IRQ hop flow arrow.
    sink.Add(ChromeEventKind::kSubmit, 'i', r.submit, kTracePidHost,
             r.submit_core, ref);
    sink.Add(ChromeEventKind::kDrain, 'i', r.drain, kTracePidHost, r.irq_core,
             ref);
    sink.Add(ChromeEventKind::kComplete, 'i', r.complete, kTracePidHost,
             r.complete_core, ref);
    if (r.complete_core != r.irq_core) {
      sink.Add(ChromeEventKind::kIrqHop, 's', r.drain, kTracePidHost,
               r.irq_core, ref)
          .id = r.id;
      sink.Add(ChromeEventKind::kIrqHop, 'f', r.complete, kTracePidHost,
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
  const bool have_records = !input.requests.empty();
  for (size_t i = 0; i < input.events.size(); ++i) {
    const TraceEvent& te = input.events[i];
    const TraceCategoryRow& row = RowOf(te.category);
    if (row.pid == 0 || (row.dropped_with_records && have_records)) {
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

}  // namespace

std::vector<ChromeEvent> BuildChromeEvents(const TraceExportInput& input) {
  // Built before the event vector is reserved: allocated after it, these
  // short-lived arrays left the heap fragmented (peak RSS 43 -> 51 MB in
  // perfbench's blkmq-slo workload on a 4-core VM).
  const BlockingIntervals intervals(input.requests);
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
  const size_t data_begin = events.size();
  BuildRequestEvents(input, intervals, sink);
  BuildTraceEventInstants(input, sink);
  BuildCounterEvents(input, sink);
  BuildSloEvents(input, sink);
  // Equal timestamps keep emission order, which preserves begin/end pairing
  // within each request's nested async slices.
  std::sort(events.begin() + static_cast<std::ptrdiff_t>(data_begin),
            events.end(), [](const ChromeEvent& a, const ChromeEvent& b) {
              return a.ts != b.ts ? a.ts < b.ts : a.seq < b.seq;
            });
  return events;
}

// --- Rendering ---------------------------------------------------------------

namespace {

// Chrome trace timestamps are microseconds; ticks are nanoseconds. Fixed
// "<us>.<ns%1000>" formatting keeps the export byte-deterministic (no
// floating-point rounding in play): printf's "%lld.%03lld" of
// (ns / 1000, ns % 1000), digit for digit, via to_chars.
void AppendMicros(std::string& out, Tick ns) {
  char buf[48];
  char* p = std::to_chars(buf, buf + 24, ns / 1000).ptr;
  *p++ = '.';
  Tick frac = ns % 1000;  // negative for negative ns, as printf prints it
  if (frac < 0) {
    *p++ = '-';
    frac = -frac;
  } else if (frac < 100) {
    *p++ = '0';
  }
  if (frac < 10) {
    *p++ = '0';
  }
  p = std::to_chars(p, buf + sizeof(buf), frac).ptr;
  out.append(buf, p);
}

// Counter and burn-rate values: "%.15g" keeps integer-valued doubles exact.
void AppendDouble(std::string& out, double v) {
  char buf[40];
  const int n = std::snprintf(buf, sizeof(buf), "%.15g", v);
  out.append(buf, static_cast<size_t>(n));
}

// "rq <id> <L|T> <pages>p <W|R>".
void AppendRequestLabel(std::string& out, const RequestRecord& r) {
  out += "rq ";
  AppendJsonUInt(out, r.id);
  out += r.latency_sensitive ? " L " : " T ";
  AppendJsonUInt(out, r.pages);
  out += r.is_write ? "p W" : "p R";
}

// Opens a member of an args object's body: `"key":`, comma-separated.
void AppendArg(std::string& args, std::string_view key) {
  if (!args.empty()) {
    args += ',';
  }
  args += '"';
  args += key;
  args += "\":";
}

void AppendIntArg(std::string& args, std::string_view key, int64_t v) {
  AppendArg(args, key);
  AppendJsonInt(args, v);
}

std::string TenantName(const TraceExportInput& input, uint64_t tenant_id) {
  auto it = input.tenant_names.find(tenant_id);
  if (it != input.tenant_names.end()) {
    return it->second;
  }
  return "tenant" + std::to_string(tenant_id);
}

}  // namespace

ChromeEventRenderer::ChromeEventRenderer(const TraceExportInput& input)
    : input_(input) {
  for (const RequestRecord& r : input.requests) {
    if (quoted_tenants_.count(r.tenant_id) == 0) {
      std::string quoted;
      AppendJsonString(quoted, TenantName(input, r.tenant_id));
      quoted_tenants_.emplace(r.tenant_id, std::move(quoted));
    }
  }
  if (input.slo != nullptr) {
    for (const auto& [tenant, report] : input.slo->tenants) {
      slo_.emplace_back(&tenant, &report);
    }
  }
  if (input.sampler != nullptr) {
    for (const auto& [name, values] : input.sampler->series()) {
      series_.emplace_back(&name, &values);
    }
  }
}

const std::string& ChromeEventRenderer::QuotedTenant(uint64_t tenant_id) const {
  return quoted_tenants_.at(tenant_id);
}

std::string_view ChromeEventRenderer::Render(const ChromeEvent& e,
                                             std::string& name,
                                             std::string& args) const {
  const RequestRecord* r =
      e.ref < input_.requests.size() ? &input_.requests[e.ref] : nullptr;
  switch (e.kind) {
    case ChromeEventKind::kProcessName:
      name += "process_name";
      AppendArg(args, "name");
      AppendJsonString(args, TrackName(e));
      return "";
    case ChromeEventKind::kThreadName:
      name += "thread_name";
      AppendArg(args, "name");
      AppendJsonString(args, TrackName(e));
      return "";
    case ChromeEventKind::kRequest:
      AppendRequestLabel(name, *r);
      if (e.ph == 'b') {  // the end event carries no args
        AppendArg(args, "tenant");
        args += QuotedTenant(r->tenant_id);
        AppendIntArg(args, "nsq", r->nsq);
        AppendIntArg(args, "ncq", r->ncq);
        AppendIntArg(args, "pages", r->pages);
      }
      return "rq";
    case ChromeEventKind::kStage:
      name += kStages[e.sub].name;
      return "rq";
    case ChromeEventKind::kFlash:
      name += "flash ";
      AppendRequestLabel(name, *r);
      return "flash";
    case ChromeEventKind::kCqe:
      name += "cqe ";
      AppendRequestLabel(name, *r);
      name += " NCQ";
      AppendJsonInt(name, r->ncq);
      return "cqe";
    case ChromeEventKind::kSubmit:
      name += "submit rq";
      AppendJsonUInt(name, r->id);
      return "";
    case ChromeEventKind::kDrain:
      name += "drain rq";
      AppendJsonUInt(name, r->id);
      return "";
    case ChromeEventKind::kComplete:
      name += "complete rq";
      AppendJsonUInt(name, r->id);
      return "";
    case ChromeEventKind::kIrqHop:
      name += "irq-hop";
      return "irq-hop";
    case ChromeEventKind::kNsqHead:
      AppendRequestLabel(name, *r);
      AppendArg(args, "tenant");
      args += QuotedTenant(r->tenant_id);
      AppendIntArg(args, "pages", r->pages);
      return "";
    case ChromeEventKind::kFetch:
      name += "fetch ";
      AppendRequestLabel(name, *r);
      AppendIntArg(args, "nsq", r->nsq);
      return "";
    case ChromeEventKind::kTraceEvent: {
      const TraceEvent& te = input_.events[e.ref];
      const TraceCategoryRow& row = RowOf(te.category);
      name += row.name;
      if (row.suffix != TraceField::kNone) {
        AppendField(name, te, row.suffix);
      }
      for (const TraceCategoryRow::Arg& arg : row.args) {
        if (arg.key == nullptr) {
          break;
        }
        AppendArg(args, arg.key);
        AppendField(args, te, arg.field);
      }
      return "";
    }
    case ChromeEventKind::kCounter:
      AppendJsonEscaped(name, *series_[e.sub].first);
      AppendArg(args, "value");
      AppendDouble(args, (*series_[e.sub].second)[e.ref]);
      return "";
    case ChromeEventKind::kSloEpisode: {
      const auto& [tenant, report] = slo_[static_cast<size_t>(e.tid)];
      const SloEpisode& ep = report->episodes[e.ref];
      name += "SLO violation ";
      AppendJsonEscaped(name, *tenant);
      AppendArg(args, "peak_burn");
      AppendDouble(args, ep.peak_burn);
      AppendArg(args, "bad");
      AppendJsonUInt(args, ep.bad);
      AppendArg(args, "total");
      AppendJsonUInt(args, ep.total);
      AppendArg(args, "blame");
      AppendJsonString(args, ep.blame.empty() ? "unattributed" : ep.blame);
      AppendArg(args, "mechanism");
      AppendJsonString(args, ep.mechanism);
      return "slo";
    }
    case ChromeEventKind::kSloBurn: {
      const auto& [tenant, report] = slo_[static_cast<size_t>(e.tid)];
      const SloWindow& win = report->windows[e.ref];
      name += "burn ";
      AppendJsonEscaped(name, *tenant);
      AppendArg(args, "fast");
      AppendDouble(args, win.fast_burn);
      AppendArg(args, "slow");
      AppendDouble(args, win.slow_burn);
      return "";
    }
  }
  return "";
}

std::string ChromeEventRenderer::Name(const ChromeEvent& e) const {
  std::string name;
  std::string args;
  Render(e, name, args);
  return name;
}

std::string_view ChromeEventRenderer::Category(const ChromeEvent& e) const {
  std::string name;
  std::string args;
  return Render(e, name, args);
}

std::string ChromeEventRenderer::TrackName(const ChromeEvent& e) const {
  if (e.kind == ChromeEventKind::kProcessName) {
    switch (e.pid) {
      case kTracePidHost:
        return "host (" + input_.stack_name + ")";
      case kTracePidNsq:
        return "NSQ head occupancy";
      case kTracePidDevice:
        return "device controller";
      case kTracePidNcq:
        return "NCQ residency";
      case kTracePidRequests:
        return "request lifecycles";
      case kTracePidCounters:
        return "sampled state";
      case kTracePidControl:
        return "stack control";
      case kTracePidSlo:
        return "SLO conformance";
    }
    return "";
  }
  switch (e.pid) {
    case kTracePidHost:
      return "core " + std::to_string(e.tid);
    case kTracePidNsq: {
      auto it = input_.nsq_labels.find(e.tid);
      return it != input_.nsq_labels.end() ? it->second
                                           : "NSQ " + std::to_string(e.tid);
    }
    case kTracePidDevice:
      return "fetch engine";
    case kTracePidControl:
      return "scheduling";
    case kTracePidSlo:
      return "SLO " + *slo_[static_cast<size_t>(e.tid)].first;
  }
  return "";
}

void ChromeEventRenderer::AppendJson(std::string& out,
                                     const ChromeEvent& e) const {
  out += "{\"ph\":\"";
  out += e.ph;
  out += '"';
  if (e.ph != 'M') {
    out += ",\"ts\":";
    AppendMicros(out, e.ts);
  }
  if (e.ph == 'X') {
    out += ",\"dur\":";
    AppendMicros(out, e.dur);
  }
  out += ",\"pid\":";
  AppendJsonInt(out, e.pid);
  out += ",\"tid\":";
  AppendJsonInt(out, e.tid);
  out += ",\"name\":\"";
  args_.clear();
  const std::string_view cat = Render(e, out, args_);
  out += '"';
  if (!cat.empty()) {
    out += ",\"cat\":\"";
    out += cat;
    out += '"';
  }
  if (e.has_id()) {
    out += ",\"id\":\"";
    AppendJsonUInt(out, e.id);
    out += '"';
  }
  if (e.ph == 's' || e.ph == 'f') {
    // Legacy flow finish binds to the enclosing slice.
    out += ",\"bp\":\"e\"";
  }
  if (!args_.empty()) {
    out += ",\"args\":{";
    out += args_;
    out += '}';
  }
  out += '}';
}

// --- Serialization ---------------------------------------------------------

namespace {

void AppendRequestRecordJson(JsonWriter& w, const RequestRecord& r) {
  w.BeginObject();
  w.Key("id").UInt(r.id);
  w.Key("tenant").UInt(r.tenant_id);
  w.Key("pages").UInt(r.pages);
  w.Key("write").Bool(r.is_write);
  w.Key("ls").Bool(r.latency_sensitive);
  w.Key("nsq").Int(r.nsq);
  w.Key("ncq").Int(r.ncq);
  w.Key("submit_core").Int(r.submit_core);
  w.Key("irq_core").Int(r.irq_core);
  w.Key("complete_core").Int(r.complete_core);
  w.Key("issue").Int(r.issue);
  w.Key("submit").Int(r.submit);
  w.Key("nsq_enqueue").Int(r.nsq_enqueue);
  w.Key("doorbell").Int(r.doorbell);
  w.Key("fetch_start").Int(r.fetch_start);
  w.Key("fetch").Int(r.fetch);
  w.Key("flash_start").Int(r.flash_start);
  w.Key("flash_end").Int(r.flash_end);
  w.Key("cqe_post").Int(r.cqe_post);
  w.Key("drain").Int(r.drain);
  w.Key("complete").Int(r.complete);
  w.EndObject();
}

}  // namespace

std::string SerializeChromeTrace(const TraceExportInput& input) {
  const std::vector<ChromeEvent> events = BuildChromeEvents(input);
  const ChromeEventRenderer renderer(input);
  // One buffer for the whole document, sized from its typical shape (~110
  // bytes per event, ~330 per raw record, ~20 per sampled value).
  size_t bytes = events.size() * 128 + input.requests.size() * 384 + 1024;
  if (input.sampler != nullptr) {
    bytes += input.sampler->times().size() * (input.sampler->series().size() + 1) * 24;
  }
  JsonWriter w;
  w.Reserve(bytes);
  w.BeginObject();
  w.Key("displayTimeUnit").String("ns");
  w.Key("otherData").BeginObject();
  w.Key("stack").String(input.stack_name);
  w.Key("num_cores").Int(input.num_cores);
  w.Key("nr_nsq").Int(input.nr_nsq);
  w.Key("nr_ncq").Int(input.nr_ncq);
  w.Key("trace_events").UInt(input.events.size());
  w.Key("request_records").UInt(input.requests.size());
  w.EndObject();
  w.Key("traceEvents").BeginArray();
  std::string event_json;
  for (const ChromeEvent& e : events) {
    event_json.clear();
    renderer.AppendJson(event_json, e);
    w.Raw(event_json);
  }
  w.EndArray();
  w.Key("ddRequests").BeginArray();
  for (const RequestRecord& r : input.requests) {
    AppendRequestRecordJson(w, r);
  }
  w.EndArray();
  if (input.sampler != nullptr) {
    w.Key("ddSampler");
    input.sampler->Snapshot().AppendJson(w);
  }
  w.EndObject();
  return w.Release();
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
