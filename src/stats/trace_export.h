// Timeline observability: per-request lifecycle capture and a Chrome Trace
// Event Format / Perfetto-compatible JSON exporter.
//
// The paper's argument is about *where* time hides inside the stack (a 4KB
// L-request stuck behind a 128KB bulk command at an NSQ head, fetch/decompose
// serialization, completion batching). Aggregate histograms cannot show that
// per-request; a timeline can. This module turns the TraceLog event stream
// plus per-request stage timelines into a trace that loads directly in
// ui.perfetto.dev / chrome://tracing:
//
//   * per-NSQ tracks with non-overlapping head-occupancy slices (who sat at
//     the queue head, for how long - HOL blocking made visible),
//   * a device fetch-engine track (fetch/decompose serialization),
//   * per-request nested async slices covering the full lifecycle
//     (submit / nsq-wait / fetch / flash / completion-wait / delivery),
//   * flow arrows across the cross-core IRQ hop,
//   * counter tracks from the periodic StateSampler (queue depths, chip
//     occupancy, run-queue lengths),
//   * instant events for doorbells and IRQs, and a control track with
//     tenant migrations and the fault path (fault-inject, timeout, retry,
//     abort).
//
// Everything here is post-processing: building and serializing the trace
// reads simulation state but never schedules events or mutates it, so an
// export-enabled run is simulated-time identical to a disabled one.
//
// Cost: events are compact references into the export input (they own no
// strings), put in time order by a stable LSD radix sort on (timestamp,
// emission index) keys - 16-bit digits, two passes for a run shorter than
// 2^32 ns - and written in that order straight into the output string by one
// cursor that reserves a bound per event and then copies without further
// checks. A request's recurring text (its label with its id digits, and its
// tenant's quoted name) is rendered once per export into a text arena that
// its ~25 events copy from; pids, tids, queue ids and page counts below 100
// are written digit by digit, ticks and other integers by to_chars. The
// number of allocations does not depend on the number of records
// (tests/hot_path_alloc_test.cc holds it to that).
#ifndef DAREDEVIL_SRC_STATS_TRACE_EXPORT_H_
#define DAREDEVIL_SRC_STATS_TRACE_EXPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/sim/ring_fifo.h"
#include "src/sim/trace.h"
#include "src/stack/request.h"

namespace daredevil {

class BlockingIntervals;  // src/stats/holb.h
class StateSampler;       // src/stats/state_sampler.h
struct SloReport;         // src/stats/slo.h
struct SloTenantReport;   // src/stats/slo.h

// --- Per-request lifecycle capture ---------------------------------------

// Compact snapshot of one completed request, captured on delivery: the
// workload layer recycles pooled requests, so the stage timeline is copied
// out before that. This is the exporter's and the HOL-blocking analyzer's
// ground truth.
struct RequestRecord {
  uint64_t id = 0;
  uint64_t tenant_id = 0;
  uint32_t pages = 1;
  bool is_write = false;
  bool latency_sensitive = false;  // realtime ionice (L-tenant) at delivery
  int nsq = -1;                    // NSQ the request was routed to
  int ncq = -1;                    // NCQ the completion came back on
  int submit_core = 0;
  int irq_core = 0;       // core that drained the CQE
  int complete_core = 0;  // tenant core the completion was delivered on
  Timeline t;             // the monotonic stage chain (src/core/types.h)
};

// Bounded append-only log of completed-request records (oldest dropped once
// full, like TraceLog). Fed by the storage stack's completion delivery path.
class RequestTimelineLog {
 public:
  explicit RequestTimelineLog(size_t capacity = 1 << 20);

  // Copies the request's timeline. Requests without a full device timeline
  // (split parents, which complete via their children) are skipped.
  void Append(const Request& rq, int irq_core, int ncq);

  // Records in completion order (chronological by `t.complete`).
  std::vector<RequestRecord> Records() const;
  size_t size() const { return records_.size(); }
  uint64_t total_recorded() const { return total_; }
  uint64_t dropped() const { return total_ - records_.size(); }

 private:
  size_t capacity_;
  RingFifo<RequestRecord> records_;  // the newest capacity_ records
  uint64_t total_ = 0;
};

// --- Chrome Trace Event Format export -------------------------------------

// Synthetic process ids grouping the tracks.
inline constexpr int kTracePidHost = 1;      // per-core tracks
inline constexpr int kTracePidNsq = 2;       // per-NSQ head-occupancy tracks
inline constexpr int kTracePidDevice = 3;    // fetch engine + flash service
inline constexpr int kTracePidNcq = 4;       // completion-queue residency
inline constexpr int kTracePidRequests = 5;  // per-request nested lifecycles
inline constexpr int kTracePidCounters = 6;  // StateSampler counter tracks
inline constexpr int kTracePidControl = 7;   // migrations, fault-path events
inline constexpr int kTracePidSlo = 8;       // per-tenant SLO violation tracks

// What a ChromeEvent stands for. The event's name, category and args are
// read from the export input when it is rendered.
enum class ChromeEventKind : uint8_t {
  kProcessName,  // M: the process_name of `pid`
  kThreadName,   // M: the thread_name of (`pid`, `tid`)
  kRequest,      // b/e: a request's outer lifecycle slice
  kStage,        // b/e: lifecycle stage `sub` (submit ... delivery)
  kFlash,        // b/e: flash service
  kCqe,          // b/e: NCQ residency
  kSubmit,       // i: submit instant on the submitting core
  kDrain,        // i: CQE drain instant on the IRQ core
  kComplete,     // i: delivery instant on the tenant core
  kIrqHop,       // s/f: the cross-core IRQ hop
  kNsqHead,      // X: NSQ head occupancy
  kFetch,        // X: fetch-engine occupancy
  kTraceEvent,   // i: TraceLog event `ref` (doorbells, IRQs, faults, ...)
  kCounter,      // C: sample `ref` of sampler series `sub`
  kSloEpisode,   // X: violation episode `ref` of SLO tenant `tid`
  kSloBurn,      // C: burn-rate window `ref` of SLO tenant `tid`
};

// One Chrome trace event before serialization: a compact reference into the
// TraceExportInput it was built from. For the request kinds `ref` is the
// record's position in TraceExportInput::requests.
struct ChromeEvent {
  Tick ts = 0;      // nanoseconds (serialized as microseconds)
  Tick dur = 0;     // X events only
  uint64_t id = 0;  // async/flow id (has_id())
  int tid = 0;
  uint32_t ref = 0;
  uint32_t sub = 0;
  uint8_t pid = 0;  // a kTracePid* track group; a byte keeps events 40 bytes
  ChromeEventKind kind = ChromeEventKind::kProcessName;
  char ph = 'X';  // b/e/X/i/C/s/f/M

  bool has_id() const { return ph == 'b' || ph == 'e' || ph == 's' || ph == 'f'; }
};

struct TraceExportInput {
  std::string stack_name;
  int num_cores = 0;
  int nr_nsq = 0;
  int nr_ncq = 0;
  std::vector<TraceEvent> events;  // TraceLog::Events(), may be empty
  // Completed-request records (RequestTimelineLog::Records()); may be empty.
  std::vector<RequestRecord> requests;
  // Optional: the interval index built from `requests` (before they moved
  // here, which keeps its record positions), so a caller that already built
  // it for the HOL report does not pay for a second one.
  const BlockingIntervals* intervals = nullptr;
  const StateSampler* sampler = nullptr;      // optional counter tracks
  // Optional finalized SLO report: renders violation episodes as slices and
  // per-window burn rates as counters on per-tenant SLO tracks.
  const SloReport* slo = nullptr;
  std::map<uint64_t, std::string> tenant_names;  // id -> display name
  std::map<int, std::string> nsq_labels;      // per-stack track naming
};

// The events in emission order: the metadata events ('M') first, then the
// data events source by source (request records, TraceLog instants, sampler
// counters, SLO tracks).
std::vector<ChromeEvent> EmitChromeEvents(const TraceExportInput& input);

// Builds the event list: EmitChromeEvents with the data events in stable
// timestamp order - equal timestamps keep emission order, which preserves
// correct begin/end nesting. Timestamps order as signed ticks.
std::vector<ChromeEvent> BuildChromeEvents(const TraceExportInput& input);

class JsonCursor;  // trace_export.cc: the serializer's output cursor

// Renders events against the input they were built from (which must outlive
// the renderer). The serializer's single path to names, categories and args.
class ChromeEventRenderer {
 public:
  explicit ChromeEventRenderer(const TraceExportInput& input);

  // The event's "name" value (JSON-escaped, without the quotes) and its
  // "cat" value ("" = no category).
  std::string Name(const ChromeEvent& e) const;
  std::string_view Category(const ChromeEvent& e) const;
  // Appends the event as one JSON object; returns its category.
  std::string_view AppendJson(std::string& out, const ChromeEvent& e) const;

 private:
  friend std::string SerializeChromeTrace(const TraceExportInput& input);

  // Where one record's text lies in text_.
  struct RecordText {
    size_t label = 0;   // "rq <id> <L|T> <pages>p <W|R>", id digits at +3
    size_t tenant = 0;  // the tenant's name as a JSON string literal
    uint32_t tenant_size = 0;
    uint8_t label_size = 0;
    uint8_t id_size = 0;
  };

  // The one description of each event kind: writes the event as one JSON
  // object (its name, category, id and args together) and returns its
  // category. The caller reserves the cursor's fixed room first.
  std::string_view Render(const ChromeEvent& e, JsonCursor& w) const;
  // Writes the process / thread name a metadata event announces, escaped.
  void WriteTrackName(JsonCursor& w, const ChromeEvent& e) const;
  // Copy a record's label, or its id digits, out of text_.
  void WriteLabel(JsonCursor& w, const RecordText& rt) const;
  void WriteId(JsonCursor& w, const RecordText& rt) const;
  std::string_view IdDigits(const RecordText& rt) const {
    return {text_.data() + rt.label + 3, rt.id_size};
  }
  std::string_view QuotedTenant(const RecordText& rt) const {
    return {text_.data() + rt.tenant, rt.tenant_size};
  }

  const TraceExportInput& input_;
  // Each tenant's quoted name once, then every record's label: one
  // allocation, sized before it is written.
  std::string text_;
  std::vector<RecordText> records_;  // by position in input_.requests
  // Positional views of the maps events index into, each name JSON-escaped
  // once.
  std::vector<std::pair<std::string, const SloTenantReport*>> slo_;
  std::vector<std::pair<std::string, const std::vector<double>*>> series_;
};

// Full JSON document: {"displayTimeUnit":"ns","otherData":{...},
// "traceEvents":[...]}. The events are the trace's only copy of the records
// and sampler series; the raw records feed the HOL report
// (ScenarioResult::holb) and the series its "observability.sampler" section.
// Deterministic: identical inputs serialize to identical bytes.
std::string SerializeChromeTrace(const TraceExportInput& input);

// Minimal recursive-descent JSON validator (no external deps). Used by the
// export tests and tools to guarantee the emitted trace parses.
bool JsonLooksValid(std::string_view json, std::string* error = nullptr);

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_STATS_TRACE_EXPORT_H_
