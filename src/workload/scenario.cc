#include "src/workload/scenario.h"

#include "src/blkmq/blkmq_stack.h"
#include "src/core/daredevil_stack.h"

namespace daredevil {

std::string_view StackKindName(StackKind kind) {
  switch (kind) {
    case StackKind::kVanilla:
      return "vanilla";
    case StackKind::kStaticSplit:
      return "static-split";
    case StackKind::kBlkSwitch:
      return "blk-switch";
    case StackKind::kDareBase:
      return "dare-base";
    case StackKind::kDareSched:
      return "dare-sched";
    case StackKind::kDareFull:
      return "daredevil";
  }
  return "?";
}

const GroupStats* ScenarioResult::Find(const std::string& group) const {
  auto it = groups.find(group);
  return it == groups.end() ? nullptr : &it->second;
}

double ScenarioResult::AvgLatencyNs(const std::string& group) const {
  const GroupStats* g = Find(group);
  return g == nullptr ? 0.0 : g->latency.Mean();
}

int64_t ScenarioResult::P99Ns(const std::string& group) const {
  const GroupStats* g = Find(group);
  return g == nullptr ? 0 : g->latency.P99();
}

int64_t ScenarioResult::P999Ns(const std::string& group) const {
  const GroupStats* g = Find(group);
  return g == nullptr ? 0 : g->latency.P999();
}

double ScenarioResult::Iops(const std::string& group) const {
  const GroupStats* g = Find(group);
  if (g == nullptr || measure_duration <= 0) {
    return 0.0;
  }
  return static_cast<double>(g->ios) / ToSec(measure_duration);
}

double ScenarioResult::ThroughputBps(const std::string& group) const {
  const GroupStats* g = Find(group);
  if (g == nullptr || measure_duration <= 0) {
    return 0.0;
  }
  return static_cast<double>(g->bytes) / ToSec(measure_duration);
}

double ScenarioResult::Metric(const std::string& name) const {
  auto it = metrics.find(name);
  return it == metrics.end() ? 0.0 : it->second;
}

namespace {

inline constexpr uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ (v & 0xff)) * kFnvPrime;
    v >>= 8;
  }
  return h;
}

uint64_t FnvString(uint64_t h, std::string_view s) {
  for (unsigned char c : s) {
    h = (h ^ c) * kFnvPrime;
  }
  return h;
}

uint64_t HashTraceStream(const TraceLog& trace) {
  uint64_t h = kFnvOffset;
  for (size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& e = trace.event(i);
    h = FnvMix(h, static_cast<uint64_t>(e.at));
    h = FnvMix(h, static_cast<uint64_t>(e.category));
    h = FnvMix(h, e.id);
    h = FnvMix(h, static_cast<uint64_t>(e.a));
    h = FnvMix(h, static_cast<uint64_t>(e.b));
  }
  return h;
}

}  // namespace

uint64_t ScenarioResult::SimulationFingerprint() const {
  // Digest the observability-free projection only: attaching a TraceLog,
  // timeline capture or StateSampler must not move the fingerprint (they are
  // read-only observers), so their outputs cannot participate in it.
  return FnvString(kFnvOffset, ToJson(/*include_observability=*/false));
}

std::string ScenarioResult::ToJson(bool include_observability) const {
  JsonWriter w;
  w.BeginObject();
  w.Key("measure_duration_ns").Int(measure_duration);
  w.Key("cpu_util").Double(cpu_util);
  w.Key("total_issued").UInt(total_issued);
  w.Key("total_completed").UInt(total_completed);
  w.Key("groups").BeginObject();
  for (const auto& [name, g] : groups) {
    w.Key(name).BeginObject();
    w.Key("ios").UInt(g.ios);
    w.Key("bytes").UInt(g.bytes);
    if (measure_duration > 0) {
      w.Key("iops").Double(static_cast<double>(g.ios) / ToSec(measure_duration));
      w.Key("throughput_bps")
          .Double(static_cast<double>(g.bytes) / ToSec(measure_duration));
    }
    w.Key("latency_ns");
    AppendHistogramJson(w, g.latency);
    w.Key("stages_ns");
    g.stages.AppendJson(w);
    w.EndObject();
  }
  w.EndObject();
  w.Key("metrics").BeginObject();
  for (const auto& [name, value] : metrics) {
    w.Key(name).Double(value);
  }
  w.EndObject();
  if (include_observability && faults_attached) {
    // What "metrics" does not hold: the fault totals are its
    // device.faults.* / stack.faults.* gauges. Outside the fingerprinted
    // projection, which keeps the fingerprint schema stable.
    w.Key("errors").BeginObject();
    w.Key("errored_completions").UInt(total_errored);
    w.Key("tenants").BeginObject();
    for (const auto& [name, te] : tenant_errors) {
      w.Key(name).BeginObject();
      w.Key("retries").UInt(te.retries);
      w.Key("aborts").UInt(te.aborts);
      w.Key("timeouts").UInt(te.timeouts);
      w.Key("errors").UInt(te.errors);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
  }
  if (include_observability &&
      (trace_total > 0 || timeline_total > 0 || !sampler.empty() ||
       !holb.empty())) {
    w.Key("observability").BeginObject();
    w.Key("trace_total").UInt(trace_total);
    w.Key("trace_dropped").UInt(trace_dropped);
    w.Key("timeline_total").UInt(timeline_total);
    w.Key("timeline_dropped").UInt(timeline_dropped);
    if (!sampler.empty()) {
      w.Key("sampler");
      sampler.AppendJson(w);
    }
    if (!holb.empty()) {
      w.Key("holb");
      holb.AppendJson(w);
    }
    w.EndObject();
  }
  if (include_observability && !slo.empty()) {
    // Like "errors" and "observability": outside the fingerprinted
    // projection, because the report exists only when the SLO observer was
    // configured and observers must not move fingerprints.
    w.Key("slo");
    slo.AppendJson(w);
  }
  w.EndObject();
  return w.str();
}

namespace {

// Ring capacity (records) of the per-request timeline capture that the
// exporter, the HOL analyzer and SLO attribution read.
constexpr size_t kTimelineCapacity = 1 << 20;

std::unique_ptr<StorageStack> MakeStack(StackKind kind, Machine* machine,
                                        Device* device, const ScenarioConfig& config) {
  const StackCosts costs;
  switch (kind) {
    case StackKind::kVanilla:
      return std::make_unique<BlkMqStack>(machine, device, costs,
                                          config.used_nqs);
    case StackKind::kStaticSplit:
      return std::make_unique<StaticSplitStack>(machine, device, costs,
                                                config.used_nqs);
    case StackKind::kBlkSwitch:
      return std::make_unique<BlkSwitchStack>(machine, device, costs);
    case StackKind::kDareBase: {
      DaredevilConfig dd = config.dd;
      dd.enable_nq_scheduling = false;
      dd.enable_sla_dispatch = false;
      return std::make_unique<DaredevilStack>(machine, device, costs, dd);
    }
    case StackKind::kDareSched: {
      DaredevilConfig dd = config.dd;
      dd.enable_nq_scheduling = true;
      dd.enable_sla_dispatch = false;
      return std::make_unique<DaredevilStack>(machine, device, costs, dd);
    }
    case StackKind::kDareFull: {
      DaredevilConfig dd = config.dd;
      dd.enable_nq_scheduling = true;
      dd.enable_sla_dispatch = true;
      return std::make_unique<DaredevilStack>(machine, device, costs, dd);
    }
  }
  return nullptr;
}

}  // namespace

ScenarioEnv::ScenarioEnv(const ScenarioConfig& config)
    : config_(config),
      shard_(config.seed),
      machine_(&shard_, config.machine),
      device_(&shard_.sim(), config.device),
      stack_(MakeStack(config.stack, &machine_, &device_, config)) {
  DD_CHECK(stack_ != nullptr)
      << "unknown stack kind " << static_cast<int>(config.stack);
  if (config.split_pages > 0) {
    stack_->SetSplitThreshold(config.split_pages);
  }
  if (config.trace_capacity > 0) {
    trace_ = std::make_unique<TraceLog>(config.trace_capacity);
    stack_->SetTraceLog(trace_.get());
  }
  if (config.io_scheduler != IoSchedulerKind::kNone) {
    stack_->EnableIoScheduler(config.io_scheduler, config.io_scheduler_window);
  }
  if (!config.faults.empty()) {
    faults_ = config.faults;
    // The injection draw sequence is a pure function of the scenario seed, so
    // same-seed fault runs are bit-reproducible end to end.
    faults_.Reseed(config.seed ^ 0x6661756c74ull);  // "fault"
    stack_->SetFaultRecovery(config.fault_recovery);
    stack_->SetFaultPlan(&faults_);
  }
  if (config.export_trace || !config.slos.empty()) {
    // SLO episode attribution replays the HOL analysis over the captured
    // timelines, so configuring specs implies the capture.
    timeline_ = std::make_unique<RequestTimelineLog>(kTimelineCapacity);
    stack_->SetTimelineLog(timeline_.get());
  }
  if (config.sample_interval > 0) {
    sampler_ = std::make_unique<StateSampler>(config.sample_interval);
    // Standard probe set: queue depths, chip occupancy, per-core run-queue
    // lengths, pending doorbell batches. All pure reads (DESIGN.md §6).
    Device* dev = &device_;
    Simulator* sim = &shard_.sim();
    Machine* mach = &machine_;
    StorageStack* stack = stack_.get();
    sampler_->AddProbe("nsq.occupancy", [dev]() {
      return static_cast<double>(dev->TotalNsqOccupancy());
    });
    sampler_->AddProbe("ncq.pending", [dev]() {
      return static_cast<double>(dev->TotalNcqPending());
    });
    sampler_->AddProbe("device.inflight_pages", [dev]() {
      return static_cast<double>(dev->inflight_pages());
    });
    sampler_->AddProbe("flash.busy_chips", [dev, sim]() {
      return static_cast<double>(dev->flash().BusyChips(sim->now()));
    });
    sampler_->AddProbe("doorbell.pending", [stack]() {
      return static_cast<double>(stack->PendingDoorbells());
    });
    for (int c = 0; c < machine_.num_cores(); ++c) {
      sampler_->AddProbe("core" + std::to_string(c) + ".runq", [mach, c]() {
        return static_cast<double>(mach->core(c).TotalQueueDepth());
      });
    }
  }
}

Tenant& ScenarioEnv::AddAppTenant(std::string name, std::string group,
                                  IoniceClass ionice, int core) {
  Tenant& t = *app_tenants_.emplace_back(std::make_unique<Tenant>());
  t.id = TenantId{next_tenant_id_++};
  t.name = std::move(name);
  t.group = std::move(group);
  t.ionice = ionice;
  t.core = core;
  stack_->OnTenantStart(&t);
  return t;
}

void ScenarioEnv::Start() {
  // Every layer registers its accounting into one registry; the result is a
  // snapshot of that registry instead of hand-copied per-class getters. The
  // registry is this run's metrics sink, published on the shard so shard-
  // aware components reach it through the context instead of a global.
  registry_ = std::make_unique<MetricsRegistry>();
  shard_.AttachMetrics(registry_.get());
  RegisterMachineMetrics(machine_, registry_.get());
  device_.RegisterMetrics(registry_.get());
  stack_->RegisterMetrics(registry_.get());
  if (sampler_ != nullptr) {
    sampler_->Attach(&shard_.sim(), measure_start(), measure_end());
  }
  if (config_.series_window > 0) {
    // Truncated series are otherwise invisible: TimeSeries::Record counts
    // pre-origin samples instead of silently dropping them, and this gauge
    // surfaces the sum. Registered only when series are collected, so runs
    // without them keep an unchanged metrics schema (and fingerprint).
    registry_->RegisterGauge("timeseries.dropped_early", [this]() {
      uint64_t dropped = 0;
      for (const auto& [group, series] : latency_series_) {
        dropped += series.dropped_early();
      }
      for (const auto& [group, series] : bytes_series_) {
        dropped += series.dropped_early();
      }
      return static_cast<double>(dropped);
    });
  }
  slo_ = std::make_unique<SloTracker>(config_.slos, measure_start(),
                                      measure_end());

  // One tenant per spec, closed-loop jobs first. Each forks the shard's RNG
  // (seeded with config.seed at construction, and forked since only by a
  // harness's app tenants), so a tenant's stream depends only on its
  // position in that order.
  const auto wire = [this](TenantIo& io) {
    const Tenant& t = io.tenant();
    io.AttachMetrics(registry_.get());
    if (config_.series_window > 0) {
      io.AttachSeries(
          &latency_series_.try_emplace(t.group, 0, config_.series_window)
               .first->second,
          &bytes_series_.try_emplace(t.group, 0, config_.series_window)
               .first->second);
    }
    if (!slo_->empty()) {
      io.AttachSlo(slo_->AddTenant(t.name, t.group, t.id.value()));
    }
    tenants_.push_back(&io);
  };
  int next_core = 0;
  for (const FioJobSpec& spec : config_.jobs) {
    int core = spec.core;
    if (core < 0) {
      core = next_core;
      next_core = (next_core + 1) % machine_.num_cores();
    }
    jobs_.push_back(std::make_unique<FioJob>(
        &machine_, stack_.get(), spec, next_tenant_id_++, core,
        shard_.rng().Fork(), measure_start(), measure_end()));
    wire(*jobs_.back());
    jobs_.back()->Start();
  }
  for (const OpenLoopSpec& spec : config_.open_loop) {
    open_loop_.push_back(std::make_unique<OpenLoopJob>(
        &machine_, stack_.get(), spec, next_tenant_id_++, shard_.rng().Fork(),
        measure_start(), measure_end()));
    wire(*open_loop_.back());
    open_loop_.back()->Start();
    // Arrivals refused at max_outstanding, per group; FIO-only runs keep
    // an unchanged metrics schema.
    registry_->RegisterGauge(
        "workload." + spec.group + ".dropped", [this, group = spec.group]() {
          uint64_t dropped = 0;
          for (const auto& src : open_loop_) {
            if (src->spec().group == group) {
              dropped += src->dropped_arrivals();
            }
          }
          return static_cast<double>(dropped);
        });
  }

  shard_.sim().At(measure_start(),
                  [this]() { busy_at_warmup_ = machine_.total_busy_ns(); });
}

std::map<uint64_t, std::string> ScenarioEnv::TenantNames() const {
  std::map<uint64_t, std::string> names;
  for (const auto& t : app_tenants_) {
    names[t->id.value()] = t->name;
  }
  for (TenantIo* io : tenants_) {
    names[io->tenant().id.value()] = io->tenant().name;
  }
  return names;
}

ScenarioResult ScenarioEnv::Finish() {
  ScenarioResult result;
  result.measure_duration = config_.duration;
  for (TenantIo* io : tenants_) {
    GroupStats& g = result.groups[io->tenant().group];
    g.latency.Merge(io->latency());
    g.stages.Merge(io->stages());
    g.ios += io->measured_ios();
    g.bytes += io->measured_bytes();
    result.total_issued += io->total_issued();
    result.total_completed += io->total_completed();
    result.total_errored += io->total_errored();
  }
  std::map<uint64_t, std::string> tenant_names = TenantNames();
  if (fault_plan() != nullptr) {
    result.faults_attached = true;
    for (const auto& [tid, stats] : stack_->tenant_errors()) {
      auto it = tenant_names.find(tid.value());
      const std::string name =
          it != tenant_names.end() ? it->second
                                   : "tenant-" + std::to_string(tid.value());
      ScenarioResult::TenantErrors& te = result.tenant_errors[name];
      te.retries = stats.retries;
      te.aborts = stats.aborts;
      te.timeouts = stats.timeouts;
      te.errors = stats.errors;
    }
  }
  result.cpu_util =
      machine_.Utilization(busy_at_warmup_, measure_start(), measure_end());
  result.metrics = registry_->Snapshot();
  result.latency_series = latency_series_;
  result.bytes_series = bytes_series_;
  if (trace_ != nullptr) {
    result.trace_hash = HashTraceStream(*trace_);
    result.trace_total = trace_->total_recorded();
    result.trace_dropped = trace_->dropped();
  }
  if (sampler_ != nullptr) {
    result.sampler = sampler_->Snapshot();
  }
  if (!slo_->empty()) {
    result.slo = slo_->Finalize();
  }
  if (timeline_ != nullptr) {
    result.timeline_total = timeline_->total_recorded();
    result.timeline_dropped = timeline_->dropped();

    std::vector<RequestRecord> records = timeline_->Records();
    // One interval index serves the HOL report, every SLO episode and the
    // trace export.
    const BlockingIntervals intervals(records);
    {
      HolbOptions holb_opts;
      holb_opts.tenant_names = tenant_names;
      const HolbAnalyzer holb(records, intervals, holb_opts);
      result.holb = holb.Report();
      // Cross-link violation episodes with their dominant blockers before
      // the export so the trace slices carry the attribution.
      AttributeSloEpisodes(result.slo, holb);
    }

    if (config_.export_trace) {
      TraceExportInput input;
      input.stack_name = std::string(stack_->name());
      input.num_cores = machine_.num_cores();
      input.nr_nsq = device_.nr_nsq();
      input.nr_ncq = device_.nr_ncq();
      if (trace_ != nullptr) {
        input.events = trace_->Events();
      }
      input.requests = std::move(records);
      input.intervals = &intervals;
      input.sampler = sampler_.get();
      input.slo = &result.slo;
      input.tenant_names = std::move(tenant_names);
      for (int i = 0; i < device_.nr_nsq(); ++i) {
        input.nsq_labels[i] = stack_->NsqTrackLabel(i);
      }
      result.trace_json = SerializeChromeTrace(input);
    }
  }
  return result;
}

ScenarioResult RunScenario(const ScenarioConfig& config) {
  ScenarioEnv env(config);
  env.Start();
  env.sim().RunUntil(env.measure_end());
  return env.Finish();
}

ScenarioConfig MakeSvmConfig(int cores) {
  ScenarioConfig config;
  config.machine.num_cores = cores;
  config.device.nr_nsq = 64;
  config.device.nr_ncq = 64;
  config.device.queue_depth = 1024;
  config.device.namespace_pages = {1ULL << 22};  // 16GiB
  return config;
}

ScenarioConfig MakeWsmConfig(int cores) {
  ScenarioConfig config;
  config.machine.num_cores = cores;
  // 980Pro-like: 128 NSQs, 24 NCQs (the paper's WS-M exposes ~5 NSQs per NCQ).
  config.device.nr_nsq = 128;
  config.device.nr_ncq = 24;
  config.device.queue_depth = 1024;
  config.device.namespace_pages = {1ULL << 22};
  return config;
}

void AddLTenants(ScenarioConfig& config, int n, uint32_t nsid) {
  for (int i = 0; i < n; ++i) {
    config.jobs.push_back(LTenantSpec(static_cast<int>(config.jobs.size()), nsid));
  }
}

void AddTTenants(ScenarioConfig& config, int n, uint32_t nsid) {
  for (int i = 0; i < n; ++i) {
    config.jobs.push_back(TTenantSpec(static_cast<int>(config.jobs.size()), nsid));
  }
}

}  // namespace daredevil
