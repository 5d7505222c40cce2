// Scenario runner: builds a machine + device + storage stack + tenants, runs
// the simulation, and aggregates per-group statistics. Every test, example
// and bench builds its run from one ScenarioConfig through ScenarioEnv.
#ifndef DAREDEVIL_SRC_WORKLOAD_SCENARIO_H_
#define DAREDEVIL_SRC_WORKLOAD_SCENARIO_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/blkswitch/blkswitch_stack.h"
#include "src/core/config.h"
#include "src/nvme/device.h"
#include "src/sim/cpu.h"
#include "src/sim/shard.h"
#include "src/sim/simulator.h"
#include "src/stack/storage_stack.h"
#include "src/stats/holb.h"
#include "src/stats/slo.h"
#include "src/stats/state_sampler.h"
#include "src/stats/time_series.h"
#include "src/stats/trace_export.h"
#include "src/workload/fio_job.h"
#include "src/workload/open_loop.h"

namespace daredevil {

enum class StackKind {
  kVanilla,      // Linux blk-mq + noop scheduler
  kStaticSplit,  // modified blk-mq (§3.1 "w/o Interfere")
  kBlkSwitch,    // blk-switch (OSDI'21) port
  kDareBase,     // decoupled layer + round-robin routing (§7.3)
  kDareSched,    // + NQ scheduling
  kDareFull,     // + SLA-aware dispatching (the full system)
};

std::string_view StackKindName(StackKind kind);

struct ScenarioConfig {
  Machine::Config machine;
  DeviceConfig device;
  StackKind stack = StackKind::kVanilla;
  DaredevilConfig dd;        // used by the kDare* kinds (flags overridden)
  int used_nqs = 0;          // NQ cap for vanilla/static-split (0 = default)
  uint32_t split_pages = 0;  // block-layer I/O splitting threshold (0 = off)
  size_t trace_capacity = 0;  // >0: attach a TraceLog ring of this many events
  IoSchedulerKind io_scheduler = IoSchedulerKind::kNone;
  int io_scheduler_window = 32;

  // --- Fault injection (src/fault/fault_plan.h) --------------------------
  // Deterministic fault schedule, reseeded from `seed` at env construction.
  // Empty (the default) attaches nothing: the run is byte-identical to a
  // pre-fault-layer simulation.
  FaultPlan faults;
  // Driver timeout/retry policy; consulted only when `faults` is non-empty.
  FaultRecoveryPolicy fault_recovery;

  // --- Observability (read-only: none of these change simulated time) ----
  // >0: attach a StateSampler recording queue depths / chip occupancy /
  // run-queue lengths / pending doorbell batches at this period.
  Tick sample_interval = 0;
  // Capture per-request stage timelines, run the HOL-blocking attribution
  // over them into ScenarioResult::holb and build the Chrome-trace JSON into
  // ScenarioResult::trace_json.
  bool export_trace = false;
  // Per-tenant latency objectives (src/stats/slo.h). Non-empty: an SloTracker
  // observes every matched tenant's deliveries over the measurement window
  // and ScenarioResult::slo carries the finalized conformance report, with
  // violation episodes cross-linked to the HOL-blocking attribution (the
  // timeline capture is attached implicitly). Pure observer: fingerprints
  // are byte-identical with and without specs.
  std::vector<SloSpec> slos;

  std::vector<FioJobSpec> jobs;
  // Open-loop sources, built after `jobs` (see ScenarioEnv::Start).
  std::vector<OpenLoopSpec> open_loop;

  Tick warmup = 20 * kMillisecond;
  Tick duration = 150 * kMillisecond;
  uint64_t seed = 42;
  Tick series_window = 0;    // >0: collect per-group time series over the run
};

struct GroupStats {
  Histogram latency;
  StageBreakdown stages;  // per-stage lifecycle breakdown (see metrics.h)
  uint64_t ios = 0;
  uint64_t bytes = 0;
};

struct ScenarioResult {
  std::map<std::string, GroupStats> groups;
  Tick measure_duration = 0;

  // Snapshot of every metric the layers registered (machine.*, device.*,
  // stack.*, workload.*, plus stack-specific namespaces).
  std::map<std::string, double> metrics;

  // Average core utilization over the measurement window.
  double cpu_util = 0.0;
  // Convenience reads of the metrics snapshot (0 when no layer registered
  // the metric).
  uint64_t cross_core_completions() const {
    return MetricCount("stack.cross_core_completions");
  }
  uint64_t requeues() const { return MetricCount("stack.requeues"); }
  uint64_t migrations() const {  // blk-switch only
    return MetricCount("blkswitch.migrations");
  }
  Tick lock_wait_ns() const {
    return static_cast<Tick>(Metric("stack.lock_wait_ns"));
  }
  uint64_t irqs_total() const { return MetricCount("device.irqs_total"); }
  uint64_t commands_fetched() const {
    return MetricCount("device.commands_fetched");
  }
  uint64_t commands_completed() const {
    return MetricCount("device.commands_completed");
  }
  uint64_t requests_submitted() const {
    return MetricCount("stack.requests_submitted");
  }
  uint64_t requests_completed() const {
    return MetricCount("stack.requests_completed");
  }

  // Summed over the scenario's jobs and open-loop sources.
  uint64_t total_issued = 0;
  uint64_t total_completed = 0;

  std::map<std::string, TimeSeries> latency_series;
  std::map<std::string, TimeSeries> bytes_series;

  // FNV-1a over the trace event stream (0 when the scenario ran without a
  // TraceLog attached). Deliberately NOT part of SimulationFingerprint():
  // the fingerprint must be identical with tracing on and off.
  uint64_t trace_hash = 0;
  // TraceLog ring accounting (0 when no TraceLog was attached). Benches warn
  // when trace_dropped > 0 - a partial ring silently truncates timelines.
  uint64_t trace_total = 0;
  uint64_t trace_dropped = 0;
  // RequestTimelineLog ring accounting (export_trace / slos runs).
  uint64_t timeline_total = 0;
  uint64_t timeline_dropped = 0;

  SamplerSnapshot sampler;  // empty unless sample_interval > 0
  HolbReport holb;          // empty unless export_trace / slos
  // Per-tenant SLO conformance (empty unless config.slos matched a tenant).
  // Serialized as the "slo" JSON section, outside the fingerprinted
  // projection like every other observer output.
  SloReport slo;
  // The exported Chrome-trace JSON (empty unless export_trace).
  std::string trace_json;

  // --- Error accounting (populated only when config.faults was non-empty) -
  // The per-tenant counts and total_errored are serialized as the "errors"
  // JSON section, OUTSIDE the fingerprinted projection. The fault totals are
  // not repeated there: they are the stack.faults.* / device.faults.* gauges
  // in "metrics", which the fingerprint digests and which exist only in
  // fault runs, so fault-free fingerprints stay byte-identical.
  bool faults_attached = false;
  struct TenantErrors {
    uint64_t retries = 0;
    uint64_t aborts = 0;
    uint64_t timeouts = 0;
    uint64_t errors = 0;  // completions the tenant saw with status != kOk
  };
  std::map<std::string, TenantErrors> tenant_errors;  // keyed by tenant name
  // Reads of the fault gauges in the metrics snapshot (0 without a plan).
  uint64_t fault_injections() const {  // FaultPlan firings (all kinds)
    return MetricCount("device.faults.injections");
  }
  uint64_t fault_retries() const { return MetricCount("stack.faults.retries"); }
  uint64_t fault_aborts() const { return MetricCount("stack.faults.aborts"); }
  uint64_t fault_timeouts() const {
    return MetricCount("stack.faults.timeouts");
  }
  // Retries exhausted, failed to the tenant.
  uint64_t failed_requests() const {
    return MetricCount("stack.faults.failed_requests");
  }
  // Workload completions with status != kOk, summed like total_issued.
  uint64_t total_errored = 0;

  const GroupStats* Find(const std::string& group) const;
  double AvgLatencyNs(const std::string& group) const;
  int64_t P99Ns(const std::string& group) const;
  int64_t P999Ns(const std::string& group) const;
  double Iops(const std::string& group) const;
  double ThroughputBps(const std::string& group) const;
  // Value from the metrics snapshot (0.0 when absent).
  double Metric(const std::string& name) const;
  uint64_t MetricCount(const std::string& name) const {
    return static_cast<uint64_t>(Metric(name));
  }

  // Machine-readable serialization: per-group end-to-end percentiles and
  // stage breakdowns plus the metrics snapshot (schema in EXPERIMENTS.md).
  // include_observability=false omits whole sections: "errors", and what
  // exists only because an observer was attached ("observability" - ring
  // stats, sampler series, HOL report - and "slo"). No key inside "metrics"
  // is filtered: it holds only values the simulation owns. That projection
  // is what the determinism fingerprint digests.
  std::string ToJson(bool include_observability = true) const;

  // Determinism gate: a stable 64-bit digest of the simulated outcome - the
  // observability-free JSON projection above (std::map keys make it
  // order-stable). Two runs of the same scenario with the same seed must
  // produce identical fingerprints, and a run with tracing/sampling attached
  // must fingerprint identically to one without (observers are read-only);
  // see tests/determinism_test.cc.
  uint64_t SimulationFingerprint() const;
};

// One run's environment (simulator + machine + device + stack + observers).
// RunScenario is Start(), RunUntil(measure_end()) and Finish(); harnesses
// that inspect live state in between, or add application tenants around
// the config's ones, call the three steps themselves.
class ScenarioEnv {
 public:
  explicit ScenarioEnv(const ScenarioConfig& config);
  ScenarioEnv(const ScenarioEnv&) = delete;
  ScenarioEnv& operator=(const ScenarioEnv&) = delete;

  // The env is a single-shard environment: one ShardContext owning the
  // simulator (and its engine), the RNG stream, and the metrics sink slot.
  ShardContext& shard() { return shard_; }
  Simulator& sim() { return shard_.sim(); }
  Machine& machine() { return machine_; }
  Device& device() { return device_; }
  StorageStack& stack() { return *stack_; }
  const ScenarioConfig& config() const { return config_; }
  Tick measure_start() const { return config_.warmup; }
  Tick measure_end() const { return config_.warmup + config_.duration; }
  // Null unless config.trace_capacity > 0.
  TraceLog* trace_log() { return trace_.get(); }
  // Null unless config.export_trace / config.slos.
  RequestTimelineLog* timeline_log() { return timeline_.get(); }
  // Null unless config.sample_interval > 0; scheduled by Start().
  StateSampler* sampler() { return sampler_.get(); }
  // Null unless config.faults was non-empty.
  FaultPlan* fault_plan() { return device_.fault_plan(); }

  // Wires the run, in this order: the metrics registry (machine, device,
  // stack, sampler), published on the shard; the sampler over the
  // measurement window; the SLO tracker; one FioJob per config.jobs entry
  // (tenant ids from 1, spec.core or round-robin when negative), then one
  // OpenLoopJob per config.open_loop entry (ids continuing, spec.core as
  // given), each with one shard-RNG fork, metrics, series and SLO hooks,
  // started as built; and the CPU-busy snapshot at measure_start. Call once.
  void Start();
  // The result of a started run that reached measure_end(): groups and
  // totals, fault accounting, the metrics snapshot and the observers' outputs
  // (HOL pass, SLO attribution, Chrome-trace export). Call once; the logs
  // stay readable.
  ScenarioResult Finish();

  // Set by Start() (empty or null before): the config's closed-loop jobs and
  // open-loop sources, and the SLO tracker they feed.
  const std::vector<std::unique_ptr<FioJob>>& jobs() const { return jobs_; }
  const std::vector<std::unique_ptr<OpenLoopJob>>& open_loop_jobs() const {
    return open_loop_;
  }
  SloTracker* slo_tracker() { return slo_.get(); }
  // Tenant id -> name over every started job and source.
  std::map<uint64_t, std::string> TenantNames() const;

 private:
  ScenarioConfig config_;
  ShardContext shard_;
  Machine machine_;
  Device device_;
  std::unique_ptr<StorageStack> stack_;
  std::unique_ptr<TraceLog> trace_;
  std::unique_ptr<RequestTimelineLog> timeline_;
  std::unique_ptr<StateSampler> sampler_;
  // The env's own copy of config.faults (reseeded from config.seed); the
  // device and stack hold raw pointers into it for the run's lifetime.
  FaultPlan faults_;

  // Built by Start(). The tenants hold raw pointers into the registry,
  // series and SLO tracker, so those are declared first (destroyed last).
  std::unique_ptr<MetricsRegistry> registry_;
  std::map<std::string, TimeSeries> latency_series_;
  std::map<std::string, TimeSeries> bytes_series_;
  std::unique_ptr<SloTracker> slo_;
  std::vector<std::unique_ptr<FioJob>> jobs_;
  std::vector<std::unique_ptr<OpenLoopJob>> open_loop_;
  std::vector<TenantIo*> tenants_;  // jobs_ then open_loop_: id = index + 1
  TickDuration busy_at_warmup_;
};

ScenarioResult RunScenario(const ScenarioConfig& config);

// --- Paper experiment helpers -------------------------------------------

// SV-M: 64 cores / 64 NSQ / 64 NCQ Samsung PM1735-like device. The scenario
// uses `cores` of the socket (the paper confines tenants to a core pool).
ScenarioConfig MakeSvmConfig(int cores = 4);
// WS-M: i9-13900K P-cores with a 980Pro-like device: 128 NSQs, 24 NCQs.
ScenarioConfig MakeWsmConfig(int cores = 8);

// Adds n L-tenants / T-tenants (paper job shapes) targeting a namespace.
void AddLTenants(ScenarioConfig& config, int n, uint32_t nsid = 0);
void AddTTenants(ScenarioConfig& config, int n, uint32_t nsid = 0);

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_WORKLOAD_SCENARIO_H_
