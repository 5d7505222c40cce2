// Shared helpers for the paper-reproduction bench binaries.
#ifndef DAREDEVIL_BENCH_BENCH_UTIL_H_
#define DAREDEVIL_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/clock.h"
#include "src/stats/metrics.h"
#include "src/stats/table.h"
#include "src/workload/scenario.h"

namespace daredevil {

// DD_BENCH_SCALE (default 1.0) multiplies simulated durations, letting users
// trade wall time for tighter percentile estimates.
inline double BenchScale() {
  const char* env = std::getenv("DD_BENCH_SCALE");
  if (env == nullptr) {
    return 1.0;
  }
  const double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

inline Tick ScaledMs(double ms) {
  return static_cast<Tick>(ms * BenchScale() * kMillisecond);
}

inline void PrintHeader(const char* experiment, const char* paper_ref,
                        const char* setup) {
  std::printf("=== %s ===\n", experiment);
  std::printf("Paper reference: %s\n", paper_ref);
  std::printf("Setup: %s\n\n", setup);
}

// Attaches a latency SLO for the L-tenant group: `target` percent of each
// L-tenant's requests must complete end-to-end under `threshold`, with burn
// rates evaluated over `window`-wide buckets. The run's ScenarioResult then
// carries a per-tenant conformance report (result.slo) whose violation
// episodes are attributed to their dominant blockers; configuring a spec
// implies per-request timeline capture.
inline void AddLatencySlo(ScenarioConfig& cfg, Tick threshold, Tick window,
                          double target = 99.0) {
  SloSpec spec;
  spec.selector = "L";
  spec.target_percentile = target;
  spec.threshold = threshold;
  spec.window = window;
  cfg.slos.push_back(spec);
}

// Total requests observed by the SLO tracker (0 = every tracked tenant was
// starved out of the measurement window; conformance is then vacuous).
inline uint64_t SloTotalRequests(const SloReport& slo) {
  uint64_t total = 0;
  for (const auto& [name, r] : slo.tenants) {
    total += r.total();
  }
  return total;
}

// Compact conformance cell for bench tables: "99.2%", "MISS 12.4%", or
// "starved" when no tracked request completed in the measurement window.
inline std::string SloCell(const SloReport& slo) {
  if (SloTotalRequests(slo) == 0) {
    return "starved";
  }
  const double conf = slo.AggregateConformancePct();
  std::string cell = FormatPercent(conf / 100.0);
  bool met = true;
  for (const auto& [name, r] : slo.tenants) {
    met = met && r.met;
  }
  return met ? cell : "MISS " + cell;
}

// DD_TRACE_JSON=<path>: benches that support timeline tracing export a
// Chrome-trace/Perfetto JSON of their tracing-enabled scenario to this path
// (load it at ui.perfetto.dev; see EXPERIMENTS.md "Capturing and viewing
// traces"). Empty when unset.
inline std::string TraceJsonPath() {
  const char* env = std::getenv("DD_TRACE_JSON");
  return env != nullptr ? std::string(env) : std::string();
}

// DD_TRACE_CAPACITY overrides the TraceLog event-ring capacity for traced
// bench runs (falls back to `fallback` when unset/invalid).
inline size_t TraceCapacityOr(size_t fallback) {
  const char* env = std::getenv("DD_TRACE_CAPACITY");
  if (env == nullptr) {
    return fallback;
  }
  const long long v = std::atoll(env);
  return v > 0 ? static_cast<size_t>(v) : fallback;
}

// Rings are bounded: a full TraceLog / timeline ring silently truncates the
// oldest events, which skews exported timelines and HOL attribution. Surface
// that loudly in bench output.
inline void WarnOnTraceDrops(const std::string& label,
                             const ScenarioResult& result) {
  if (result.trace_dropped > 0) {
    std::fprintf(stderr,
                 "WARNING: %s: TraceLog dropped %llu of %llu events - raise "
                 "trace_capacity (DD_TRACE_CAPACITY)\n",
                 label.c_str(),
                 static_cast<unsigned long long>(result.trace_dropped),
                 static_cast<unsigned long long>(result.trace_total));
  }
  if (result.timeline_dropped > 0) {
    std::fprintf(stderr,
                 "WARNING: %s: timeline ring dropped %llu of %llu request "
                 "records\n",
                 label.c_str(),
                 static_cast<unsigned long long>(result.timeline_dropped),
                 static_cast<unsigned long long>(result.timeline_total));
  }
}

// Machine-readable bench results. When DD_BENCH_JSON=<path> is set, every
// result added here is serialized (per-group percentiles + stage breakdowns
// + the metrics snapshot) and the file is written when the sink goes out of
// scope at the end of main(). Disabled (zero-cost) without the env var.
//
//   BenchJsonSink json("fig02_motivation");
//   ...
//   json.Add("vanilla/nt=8", result);
//
// Schema: {"bench":..., "bench_scale":..., "results":[{"label":..., <ScenarioResult::ToJson()>}]}
class BenchJsonSink {
 public:
  explicit BenchJsonSink(std::string bench_name)
      : name_(std::move(bench_name)) {
    const char* env = std::getenv("DD_BENCH_JSON");
    if (env != nullptr && env[0] != '\0') {
      path_ = env;
    }
  }
  BenchJsonSink(const BenchJsonSink&) = delete;
  BenchJsonSink& operator=(const BenchJsonSink&) = delete;

  ~BenchJsonSink() { Write(); }

  bool enabled() const { return !path_.empty(); }

  // Records a scenario result under a label like "vanilla/nt=8".
  void Add(const std::string& label, const ScenarioResult& result) {
    if (enabled()) {
      entries_.emplace_back(label, result.ToJson());
    }
  }
  // Records a pre-rendered JSON object (for benches with bespoke stats,
  // e.g. per-op histograms via HistogramToJson()).
  void AddJson(const std::string& label, std::string json) {
    if (enabled()) {
      entries_.emplace_back(label, std::move(json));
    }
  }
  // Writes the file now (also called from the destructor; idempotent).
  void Write() {
    if (!enabled() || written_) {
      return;
    }
    written_ = true;
    JsonWriter w;
    w.BeginObject();
    w.Key("bench").String(name_);
    w.Key("bench_scale").Double(BenchScale());
    w.Key("results").BeginArray();
    for (const auto& [label, json] : entries_) {
      w.BeginObject();
      w.Key("label").String(label);
      w.Key("result").Raw(json);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "DD_BENCH_JSON: cannot open %s\n", path_.c_str());
      return;
    }
    std::fwrite(w.str().data(), 1, w.str().size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::fprintf(stderr, "DD_BENCH_JSON: wrote %zu result(s) to %s\n",
                 entries_.size(), path_.c_str());
  }

 private:
  std::string name_;
  std::string path_;
  std::vector<std::pair<std::string, std::string>> entries_;
  bool written_ = false;
};

}  // namespace daredevil

#endif  // DAREDEVIL_BENCH_BENCH_UTIL_H_
