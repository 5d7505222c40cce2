// Unified observability substrate: the request lifecycle stage breakdown and
// a registry of named counters/histograms/gauges that every layer (machine,
// device, storage stacks, workload) registers into.
//
// The paper's argument (§2-§3) is about *where* latency accumulates - NSQ
// head-of-line wait, controller fetch/decompose, flash service, completion
// batching - so the simulation stamps the full stage timeline on every
// Request and aggregates it here. StageBreakdown turns a completed request's
// timestamps into per-stage log-linear histograms whose per-request stage
// durations telescope exactly to the end-to-end latency.
#ifndef DAREDEVIL_SRC_STATS_METRICS_H_
#define DAREDEVIL_SRC_STATS_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/types.h"
#include "src/sim/clock.h"
#include "src/stats/histogram.h"

namespace daredevil {

struct Request;  // src/stack/request.h
class Machine;   // src/sim/cpu.h

// --- JSON -----------------------------------------------------------------

// Writes `s` at `out` without quotes, escaping quotes, backslashes and
// control characters, and returns the end. `out` needs room for
// kJsonEscapeGrowth bytes per character of `s`. JsonWriter's strings and
// the trace exporter's cursor both escape through it.
inline constexpr size_t kJsonEscapeGrowth = 6;  // a control char -> \u00XX
char* WriteJsonEscaped(char* out, std::string_view s);

// Minimal JSON emitter (no external deps). Callers alternate Key()/value
// calls inside objects; comma placement is handled automatically. Integers
// go through std::to_chars (the digits of printf's %lld / %llu), doubles
// through "%.15g".
class JsonWriter {
 public:
  void Reserve(size_t bytes) { out_.reserve(bytes); }

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view k);
  JsonWriter& String(std::string_view v);
  JsonWriter& Int(int64_t v);
  JsonWriter& UInt(uint64_t v);
  JsonWriter& Double(double v);
  JsonWriter& Bool(bool v);
  // Splices a pre-rendered JSON value verbatim.
  JsonWriter& Raw(std::string_view json);

  const std::string& str() const { return out_; }

 private:
  void BeforeValue();

  std::string out_;
  std::vector<bool> first_;  // per open container: no value emitted yet
  bool after_key_ = false;
};

// Summary of a histogram as a JSON object:
// {"count":..,"min":..,"mean":..,"p50":..,"p90":..,"p99":..,"p999":..,"max":..}
void AppendHistogramJson(JsonWriter& w, const Histogram& h);
std::string HistogramToJson(const Histogram& h);

// --- Stage breakdown ------------------------------------------------------

// The request lifecycle stages, in order. Stage boundaries (kStageSpans) are
// chosen so the per-request stage durations sum exactly to complete - issue.
enum class Stage : int {
  kSubmit = 0,      // issue -> NSQ enqueue: user prep, syscall, block-layer
                    // submit work, routing, NSQ lock wait
  kNsqWait,         // NSQ enqueue -> controller fetch start: doorbell batching
                    // plus in-NSQ head-of-line wait (the paper's §3.1 villain)
  kFetch,           // fetch start -> fetch/decompose finished
  kFlash,           // decompose -> last page done (includes chip queueing)
  kCompletionWait,  // last page done -> driver drained the CQE: completion
                    // post, IRQ coalescing wait, IRQ dispatch and ISR entry
  kDelivery,        // CQE drain -> completion delivered to userspace
                    // (per-CQE ISR work plus the cross-core hop)
};
inline constexpr int kNumStages = 6;

// One stage as a span of the request timeline (src/core/types.h): from its
// begin stamp to its end stamp, with its StageBreakdown JSON key and its
// slice name in the trace export.
struct StageSpan {
  Stage stage;
  std::string_view json_name;   // string literals: NUL-terminated
  std::string_view trace_name;
  Tick Timeline::*begin;
  Tick Timeline::*end;
};

// The one table of stage boundaries, in enum order. Each stage ends where
// the next begins, so the spans tile [issue, complete].
inline constexpr StageSpan kStageSpans[kNumStages] = {
    {Stage::kSubmit, "submit", "submit", &Timeline::issue,
     &Timeline::nsq_enqueue},
    {Stage::kNsqWait, "nsq_wait", "nsq-wait", &Timeline::nsq_enqueue,
     &Timeline::fetch_start},
    {Stage::kFetch, "fetch", "fetch", &Timeline::fetch_start,
     &Timeline::fetch},
    {Stage::kFlash, "flash", "flash", &Timeline::fetch, &Timeline::flash_end},
    {Stage::kCompletionWait, "completion_wait", "completion-wait",
     &Timeline::flash_end, &Timeline::drain},
    {Stage::kDelivery, "delivery", "delivery", &Timeline::drain,
     &Timeline::complete},
};

namespace metrics_internal {
constexpr bool StageSpansTile() {
  for (int i = 0; i < kNumStages; ++i) {
    if (kStageSpans[i].stage != static_cast<Stage>(i) ||
        (i > 0 && kStageSpans[i].begin != kStageSpans[i - 1].end)) {
      return false;
    }
  }
  return kStageSpans[0].begin == &Timeline::issue &&
         kStageSpans[kNumStages - 1].end == &Timeline::complete;
}
}  // namespace metrics_internal
static_assert(metrics_internal::StageSpansTile(),
              "kStageSpans must follow enum order and tile issue..complete");

inline const char* StageName(Stage s) {
  return kStageSpans[static_cast<int>(s)].json_name.data();
}

class StageBreakdown {
 public:
  // Records the stage durations of a completed request. Requests without a
  // full device timeline (e.g. split parents, which complete via their
  // children) are skipped.
  void Record(const Request& rq);
  void Merge(const StageBreakdown& other);
  void Reset();

  const Histogram& stage(Stage s) const {
    return stages_[static_cast<int>(s)];
  }
  Histogram& stage(Stage s) { return stages_[static_cast<int>(s)]; }
  // Requests with a full timeline recorded so far.
  uint64_t count() const { return stages_[0].count(); }
  // Sum of the per-stage means; equals the end-to-end mean latency of the
  // recorded requests (the stages telescope).
  double TotalMeanNs() const;

  // {"submit":{histogram...},"nsq_wait":{...},...}
  void AppendJson(JsonWriter& w) const;

 private:
  Histogram stages_[kNumStages];
};

// --- Metrics registry -----------------------------------------------------

// A registry of named metrics. Components either grab a counter cell (shared
// by name, incremented directly on hot paths) or register a gauge callback
// that reads their internal accounting at snapshot time. The registry must
// not outlive the components whose gauges it holds.
class MetricsRegistry {
 public:
  // Returns a stable counter cell, creating it at zero. Repeated calls with
  // the same name return the same cell, so layers can share an aggregate.
  uint64_t* Counter(const std::string& name);
  // Returns a named histogram, creating it empty.
  Histogram* Hist(const std::string& name);
  // Registers (or replaces) a pull gauge evaluated at snapshot time.
  void RegisterGauge(const std::string& name, std::function<double()> fn);

  // Current value of a counter or gauge; 0.0 when the name is unknown.
  double Value(const std::string& name) const;
  bool Has(const std::string& name) const;
  // All counters and gauges, evaluated now.
  std::map<std::string, double> Snapshot() const;

  // {"name":value,...} for scalars plus {"name":{histogram...}} entries.
  std::string ToJson() const;

 private:
  std::map<std::string, uint64_t> counters_;   // node-based: stable addresses
  std::map<std::string, Histogram> hists_;
  std::map<std::string, std::function<double()>> gauges_;
};

// Registers the machine's CPU accounting (cross-core posts, per-privilege
// busy time) as gauges. Free function because the sim layer sits below the
// stats library in the link order.
void RegisterMachineMetrics(const Machine& machine, MetricsRegistry* registry);

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_STATS_METRICS_H_
