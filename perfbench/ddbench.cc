// ddbench: the simulator's own performance benchmark - host cost per
// simulated I/O on one fixed-size workload, split by layer from outside.
//
//   ddbench --workload dd-mixed|kv-ycsb|blkmq-slo --seed N --seconds S
//           [--trace-out PATH]
//
// One process runs one workload, single-threaded. It repeats a fixed amount
// of simulated work (a fixed simulated duration, never a fixed wall time)
// until S host seconds have passed, checks every repetition's outputs, and
// reports medians. With --trace-out it then runs the workload once more with
// the same seed, keeping host-time spans in memory, and writes them as
// Chrome-trace JSON (ui.perfetto.dev) when it ends. The last stdout line is
// one JSON report; run.py turns it into the benchmark's result line.
//
// Every layer is timed around the public calls this file makes into it;
// nothing under src/ is instrumented. Host phases are timed with the
// thread-CPU clock (wall time is reported beside the run phase), and heap
// allocations are counted by the operator new replacement below, which
// exists only in this binary.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/apps/app_io.h"
#include "src/apps/kvstore.h"
#include "src/apps/ycsb.h"
#include "src/stats/metrics.h"
#include "src/stats/trace_export.h"
#include "src/workload/open_loop.h"
#include "src/workload/scenario.h"

// --- Allocation counting ----------------------------------------------------

namespace {
// The benchmark is single-threaded; a plain counter is exact.
uint64_t g_allocs = 0;

void* CountedAlloc(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t align) {
  ++g_allocs;
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace daredevil;

namespace {

// --- Host clocks, phases and spans ------------------------------------------

double ThreadCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double WallS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Host cost of one phase: thread CPU, wall, and heap allocations.
struct Cost {
  double cpu_s = 0.0;
  double wall_s = 0.0;
  uint64_t allocs = 0;

  Cost& operator+=(const Cost& o) {
    cpu_s += o.cpu_s;
    wall_s += o.wall_s;
    allocs += o.allocs;
    return *this;
  }
};

// Host-time spans of the traced run, kept in memory and written as
// Chrome-trace JSON at exit. A null SpanLog* means "untraced": phases are
// still timed, nothing is recorded.
class SpanLog {
 public:
  SpanLog() : origin_(WallS()) {}

  void Add(const char* name, const char* cat, double wall_begin,
           const Cost& cost, double sim_ms) {
    spans_.push_back({name, cat, (wall_begin - origin_) * 1e6,
                      cost.wall_s * 1e6, cost.cpu_s * 1e3, cost.allocs, sim_ms});
  }

  // Nested spans share one track: a parent's interval covers its children,
  // so the viewer stacks them and a layer's self time is the uncovered part.
  std::string ToChromeTrace() const {
    JsonWriter w;
    w.BeginObject();
    w.Key("displayTimeUnit").String("ms");
    w.Key("traceEvents").BeginArray();
    w.BeginObject();
    w.Key("ph").String("M");
    w.Key("name").String("thread_name");
    w.Key("pid").Int(1);
    w.Key("tid").Int(1);
    w.Key("args").BeginObject().Key("name").String("ddbench host").EndObject();
    w.EndObject();
    for (const Span& s : spans_) {
      w.BeginObject();
      w.Key("ph").String("X");
      w.Key("name").String(s.name);
      w.Key("cat").String(s.cat);
      w.Key("pid").Int(1);
      w.Key("tid").Int(1);
      w.Key("ts").Double(s.ts_us);
      w.Key("dur").Double(s.dur_us);
      w.Key("args").BeginObject();
      w.Key("cpu_ms").Double(s.cpu_ms);
      w.Key("allocs").UInt(s.allocs);
      if (s.sim_ms >= 0) {
        w.Key("simulated_until_ms").Double(s.sim_ms);
      }
      w.EndObject();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    return w.str();
  }

 private:
  struct Span {
    const char* name;
    const char* cat;
    double ts_us;
    double dur_us;
    double cpu_ms;
    uint64_t allocs;
    double sim_ms;  // engine slices: simulated time reached; else -1
  };
  double origin_;
  std::vector<Span> spans_;
};

// Runs fn as one timed phase; records a span when tracing.
template <typename Fn>
Cost Timed(SpanLog* spans, const char* name, const char* cat, Fn&& fn,
           double sim_ms = -1) {
  const uint64_t a0 = g_allocs;
  const double w0 = WallS();
  const double c0 = ThreadCpuS();
  fn();
  Cost cost;
  cost.cpu_s = ThreadCpuS() - c0;
  cost.wall_s = WallS() - w0;
  cost.allocs = g_allocs - a0;
  if (spans != nullptr) {
    spans->Add(name, cat, w0, cost, sim_ms);
  }
  return cost;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// --- Workloads ----------------------------------------------------------------

enum class Kind { kDdMixed, kKvYcsb, kBlkmqSlo };

struct WorkloadDef {
  const char* name;
  Kind kind;
  Tick warmup;
  Tick duration;  // simulated measurement window of one repetition
  Tick slice;     // RunUntil granularity (host time per slice is reported)
  int min_setups;  // set-up samples per process (repeated constructions)
};

constexpr WorkloadDef kWorkloads[] = {
    {"dd-mixed", Kind::kDdMixed, 50 * kMillisecond, 2000 * kMillisecond,
     20 * kMillisecond, 21},
    {"kv-ycsb", Kind::kKvYcsb, 40 * kMillisecond, 1000 * kMillisecond,
     10 * kMillisecond, 9},
    {"blkmq-slo", Kind::kBlkmqSlo, 20 * kMillisecond, 500 * kMillisecond,
     10 * kMillisecond, 21},
};

// Simulated time allowed after the measurement window for in-flight I/O to
// complete before the conservation check.
constexpr Tick kDrainLimit = 500 * kMillisecond;

// Samples behind each blkmq-slo per-layer host time (the observer-free
// engine profile and each RunScenario twin) in a traced invocation.
constexpr int kLayerSamples = 5;

constexpr int kKvClients = 4;
constexpr uint64_t kKvKeysPerClient = 50000;

SloSpec LatencySlo() {
  SloSpec slo;
  slo.selector = "L";
  slo.target_percentile = 99.0;
  slo.threshold = 5 * kMillisecond;
  slo.window = 5 * kMillisecond;
  return slo;
}

// The workload's ScenarioConfig: FIO-style jobs live in config.jobs; the
// open-loop sources and KV clients are built beside them by EnvRun.
ScenarioConfig MakeConfig(const WorkloadDef& def, uint64_t seed) {
  ScenarioConfig cfg = MakeSvmConfig(4);
  cfg.seed = seed;
  cfg.warmup = def.warmup;
  cfg.duration = def.duration;
  switch (def.kind) {
    case Kind::kDdMixed:
      cfg.stack = StackKind::kDareFull;
      AddLTenants(cfg, 4);
      AddTTenants(cfg, 16);
      break;
    case Kind::kKvYcsb:
      cfg.stack = StackKind::kBlkSwitch;
      AddTTenants(cfg, 8);
      break;
    case Kind::kBlkmqSlo:
      cfg.stack = StackKind::kVanilla;
      AddLTenants(cfg, 4);
      for (int i = 0; i < 8; ++i) {
        FioJobSpec spec = TTenantSpec(static_cast<int>(cfg.jobs.size()));
        spec.is_write = false;  // sequential 128KB readers
        cfg.jobs.push_back(spec);
      }
      cfg.slos.push_back(LatencySlo());
      cfg.export_trace = true;
      break;
  }
  // Closed-loop jobs stop issuing at the end of the window, like the
  // open-loop sources and YCSB clients, so in-flight I/O can drain for the
  // conservation check.
  for (FioJobSpec& spec : cfg.jobs) {
    spec.stop_time = def.warmup + def.duration;
  }
  return cfg;
}

// What one repetition produced: host costs per phase plus its simulated
// outputs (identical across repetitions of one seed by construction).
struct RepOutput {
  Cost setup;
  double setup_env_s = 0.0;
  double setup_apps_s = 0.0;
  double setup_jobs_s = 0.0;
  Cost engine;                    // Simulator::RunUntil slices
  std::vector<double> slice_ms;   // host CPU ms per simulated slice
  Cost report;                    // result build + ToJson + fingerprint
  Cost run;                       // end of set-up -> finished result
  uint64_t events = 0;
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t fingerprint = 0;
  double l_p99_us = 0.0;
  double t_mb_per_s = 0.0;
  std::map<std::string, double> layer;  // simulated per-layer outputs
  std::vector<std::string> failures;    // failed output checks
};

void Check(RepOutput& out, bool ok, const std::string& what) {
  if (!ok) {
    out.failures.push_back(what);
  }
}

// A ScenarioEnv plus the tenants driving it, wired the way RunScenario wires
// FIO jobs (tenant ids from 1, round-robin cores, per-job forks of the shard
// RNG, the same metrics registrations and CPU-busy snapshot), so a config
// with only FIO jobs reproduces RunScenario's fingerprint exactly.
class EnvRun {
 public:
  EnvRun(const WorkloadDef& def, const ScenarioConfig& cfg, SpanLog* spans,
         RepOutput& out)
      : def_(def), cfg_(cfg) {
    out.setup = Timed(spans, "setup", "workload", [&]() {
      out.setup_env_s = Timed(spans, "setup.env", "workload", [&]() {
                          env_ = std::make_unique<ScenarioEnv>(cfg_);
                          env_->shard().AttachMetrics(&registry_);
                          RegisterMachineMetrics(env_->machine(), &registry_);
                          env_->device().RegisterMetrics(&registry_);
                          env_->stack().RegisterMetrics(&registry_);
                        }).cpu_s;
      out.setup_apps_s = def_.kind != Kind::kKvYcsb
                             ? 0.0
                             : Timed(spans, "setup.apps", "apps", [&]() {
                                 BuildKvClients();
                               }).cpu_s;
      out.setup_jobs_s = Timed(spans, "setup.jobs", "workload", [&]() {
                           BuildJobs();
                         }).cpu_s;
    });
  }

  // Advances the simulation in fixed simulated slices to the end of the
  // measurement window, then builds the result and its fingerprint.
  void Run(SpanLog* spans, RepOutput& out) {
    Simulator& sim = env_->sim();
    const uint64_t events0 = sim.events_processed();
    const Tick end = env_->measure_end();
    out.slice_ms.reserve(static_cast<size_t>(end / def_.slice) + 1);
    out.run = Timed(spans, "run", "workload", [&]() {
      for (Tick t = std::min(def_.slice, end);; t = std::min(t + def_.slice, end)) {
        const Cost slice = Timed(
            spans, "RunUntil", "sim.engine", [&]() { sim.RunUntil(t); }, ToMs(t));
        out.engine += slice;
        out.slice_ms.push_back(slice.cpu_s * 1e3);
        if (t == end) {
          break;
        }
      }
      out.report = Timed(spans, "report", "stats", [&]() { Report(out); });
    });
    out.events = sim.events_processed() - events0;
    CheckOutputs(out);
    DrainAndCheckConservation(out);
  }

 private:
  struct KvClient {
    Tenant tenant;
    std::unique_ptr<AppIoContext> io;
    std::unique_ptr<KvStore> store;
    std::unique_ptr<YcsbWorkload> ycsb;
  };

  void BuildKvClients() {
    KvStoreConfig kv_cfg;
    // A small memtable so memtable flushes (with their flush barriers) and
    // L0 compactions happen within one repetition.
    kv_cfg.memtable_entries = 128;
    for (int i = 0; i < kKvClients; ++i) {
      auto client = std::make_unique<KvClient>();
      client->tenant.id = TenantId{static_cast<uint64_t>(101 + i)};
      client->tenant.name = "kv" + std::to_string(i);
      client->tenant.group = "APP";
      client->tenant.ionice = IoniceClass::kRealtime;
      client->tenant.core = i % 4;
      env_->stack().OnTenantStart(&client->tenant);
      client->io = std::make_unique<AppIoContext>(
          &env_->machine(), &env_->stack(), &client->tenant, /*nsid=*/0);
      client->store = std::make_unique<KvStore>(client->io.get(), kv_cfg,
                                                env_->shard().rng().Fork());
      client->store->Load(kKvKeysPerClient);
      client->store->WarmCache(4 * kv_cfg.block_cache_pages);
      YcsbConfig ycsb_cfg;
      ycsb_cfg.workload = 'A';
      ycsb_cfg.record_count = kKvKeysPerClient;
      client->ycsb = std::make_unique<YcsbWorkload>(
          client->store.get(), ycsb_cfg, env_->shard().rng().Fork(),
          &env_->sim(), env_->measure_start(), env_->measure_end());
      kv_.push_back(std::move(client));
    }
  }

  void BuildJobs() {
    Machine& machine = env_->machine();
    int next_core = 0;
    uint64_t next_tenant_id = 1;
    for (const FioJobSpec& spec : cfg_.jobs) {
      int core = spec.core;
      if (core < 0) {
        core = next_core;
        next_core = (next_core + 1) % machine.num_cores();
      }
      jobs_.push_back(std::make_unique<FioJob>(
          &machine, &env_->stack(), spec, next_tenant_id++, core,
          env_->shard().rng().Fork(), env_->measure_start(), env_->measure_end()));
      jobs_.back()->AttachMetrics(&registry_);
    }
    if (def_.kind == Kind::kDdMixed) {
      for (int i = 0; i < 4; ++i) {
        OpenLoopSpec spec;
        spec.name = "ol" + std::to_string(i);
        spec.group = "OL";
        spec.ionice = IoniceClass::kRealtime;
        spec.pages = 1;
        spec.iops = 5000;
        spec.burst_prob = 0.1;
        spec.burst_len = 8;
        spec.core = i % 4;
        sources_.push_back(std::make_unique<OpenLoopJob>(
            &machine, &env_->stack(), spec, static_cast<uint64_t>(500 + i),
            env_->shard().rng().Fork(), env_->measure_start(),
            env_->measure_end()));
      }
    }
    for (auto& job : jobs_) {
      job->Start();
    }
    for (auto& src : sources_) {
      src->Start();
    }
    for (auto& client : kv_) {
      client->ycsb->Start();
    }
    env_->sim().At(env_->measure_start(),
                   [this]() { busy_at_warmup_ = env_->machine().total_busy_ns(); });
  }

  // The ScenarioResult RunScenario would build for these tenants (plus the
  // open-loop and KV groups), its JSON report and fingerprint.
  void Report(RepOutput& out) {
    ScenarioResult r;
    r.measure_duration = cfg_.duration;
    for (const auto& job : jobs_) {
      GroupStats& g = r.groups[job->spec().group];
      g.latency.Merge(job->latency());
      g.stages.Merge(job->stages());
      g.ios += job->measured_ios();
      g.bytes += job->measured_bytes();
      r.total_issued += job->total_issued();
      r.total_completed += job->total_completed();
    }
    for (const auto& src : sources_) {
      GroupStats& g = r.groups[src->spec().group];
      g.latency.Merge(src->latency());
      g.stages.Merge(src->stages());
      g.ios += src->measured_ios();
      g.bytes += src->measured_ios() * src->spec().pages * kPageBytes;
    }
    for (const auto& client : kv_) {
      GroupStats& g = r.groups["YCSB"];
      for (int op = 0; op < kNumYcsbOps; ++op) {
        g.latency.Merge(client->ycsb->OpLatency(static_cast<YcsbOp>(op)));
        g.ios += client->ycsb->OpCount(static_cast<YcsbOp>(op));
      }
    }
    r.cpu_util = env_->machine().Utilization(
        busy_at_warmup_, env_->measure_start(), env_->measure_end());
    r.metrics = registry_.Snapshot();
    if (!kv_.empty()) {
      double hits = 0, misses = 0, wal = 0, flushes = 0, compactions = 0;
      for (const auto& client : kv_) {
        hits += static_cast<double>(client->store->cache_hits());
        misses += static_cast<double>(client->store->cache_misses());
        wal += static_cast<double>(client->store->wal_appends());
        flushes += static_cast<double>(client->store->flushes());
        compactions += static_cast<double>(client->store->compactions());
      }
      r.metrics["apps.kv.cache_hits"] = hits;
      r.metrics["apps.kv.cache_misses"] = misses;
      r.metrics["apps.kv.wal_appends"] = wal;
      r.metrics["apps.kv.flushes"] = flushes;
      r.metrics["apps.kv.compactions"] = compactions;
    }
    out.fingerprint = r.SimulationFingerprint();
    (void)r.ToJson();
    result_ = std::move(r);
  }

  void CheckOutputs(RepOutput& out) {
    const ScenarioResult& r = result_;
    Machine& machine = env_->machine();
    StorageStack& stack = env_->stack();
    for (const auto& job : jobs_) {
      out.issued += job->total_issued();
      out.completed += job->total_completed();
      Check(out,
            job->total_issued() ==
                job->total_completed() + static_cast<uint64_t>(job->inflight()),
            "conservation " + job->spec().name);
      Check(out, job->total_errored() == 0, "errored completions " + job->spec().name);
    }
    uint64_t dropped = 0;
    for (const auto& src : sources_) {
      out.issued += src->total_arrivals() - src->dropped_arrivals();
      out.completed += src->total_completed();
      dropped += src->dropped_arrivals();
      Check(out,
            src->total_arrivals() == src->dropped_arrivals() + src->total_completed() +
                                         static_cast<uint64_t>(src->outstanding()),
            "conservation " + src->spec().name);
      Check(out, src->total_errored() == 0, "errored completions " + src->spec().name);
    }
    uint64_t kv_ops = 0;
    for (const auto& client : kv_) {
      const AppIoContext& io = *client->io;
      const uint64_t issued = KvIssued(io);
      Check(out, io.inflight() >= 0 && static_cast<uint64_t>(io.inflight()) <= issued,
            "in-flight count out of range " + client->tenant.name);
      Check(out, client->ycsb->total_ops() > 0, "no YCSB ops " + client->tenant.name);
      out.issued += issued;
      out.completed += issued - static_cast<uint64_t>(io.inflight());
      kv_ops += client->ycsb->total_ops();
    }
    Check(out, stack.error_completions() == 0, "stack error completions");
    Check(out, out.completed > 0, "no I/O completed");

    const char* l_groups[] = {"L", "OL", "YCSB"};
    Histogram l_latency;
    StageBreakdown l_stages;
    for (const char* name : l_groups) {
      if (const GroupStats* g = r.Find(name)) {
        l_latency.Merge(g->latency);
        l_stages.Merge(g->stages);
      }
    }
    out.l_p99_us = static_cast<double>(l_latency.P99()) / kMicrosecond;
    out.t_mb_per_s = r.ThroughputBps("T") / 1e6;
    Check(out, l_latency.count() > 0, "no latency-sensitive completions");

    auto& L = out.layer;
    double items = 0;
    for (int c = 0; c < machine.num_cores(); ++c) {
      items += static_cast<double>(machine.core(c).items_executed());
    }
    L["sim.cpu.items"] = items;
    L["sim.cpu.cross_core_posts"] = static_cast<double>(machine.cross_core_posts());
    L["sim.cpu.util"] = r.cpu_util;
    L["stack.requests_submitted"] = static_cast<double>(stack.requests_submitted());
    L["stack.requeues"] = static_cast<double>(stack.requeues());
    L["stack.doorbells"] = static_cast<double>(stack.doorbells_rung());
    L["stack.rqs_per_doorbell"] =
        stack.doorbells_rung() == 0
            ? 0.0
            : static_cast<double>(stack.doorbell_rqs_rung()) /
                  static_cast<double>(stack.doorbells_rung());
    L["stack.cross_core_completions"] =
        static_cast<double>(stack.cross_core_completions());
    L["stack.lock_wait_us"] = ToUs(stack.submission_lock_wait_ns().ticks());
    const Device& dev = env_->device();
    L["nvme.commands_fetched"] = static_cast<double>(dev.commands_fetched());
    L["nvme.irqs"] = r.Metric("device.irqs_total");
    L["nvme.fetch_stall_us"] = ToUs(dev.fetch_stall_ns());
    L["nvme.flushes"] = static_cast<double>(dev.flushes_completed());
    L["nvme.fua_persists"] = static_cast<double>(dev.fua_persists());
    L["workload.ios"] = static_cast<double>(out.completed);
    L["workload.dropped_arrivals"] = static_cast<double>(dropped);
    L["apps.kv_ops"] = static_cast<double>(kv_ops);
    const double hits = r.Metric("apps.kv.cache_hits");
    const double lookups = hits + r.Metric("apps.kv.cache_misses");
    L["apps.cache_hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
    L["apps.wal_appends"] = r.Metric("apps.kv.wal_appends");
    L["apps.flushes"] = r.Metric("apps.kv.flushes");
    L["apps.compactions"] = r.Metric("apps.kv.compactions");
    const Stage stages[] = {Stage::kSubmit, Stage::kNsqWait, Stage::kFetch,
                            Stage::kFlash, Stage::kCompletionWait, Stage::kDelivery};
    for (Stage s : stages) {
      L[std::string("model.l.") + StageName(s) + "_p99_us"] =
          static_cast<double>(l_stages.stage(s).P99()) / kMicrosecond;
    }
  }

  static uint64_t KvIssued(const AppIoContext& io) {
    return io.reads_issued() + io.writes_issued() + io.flushes_issued();
  }

  int64_t TenantsInFlight() const {
    int64_t n = 0;
    for (const auto& job : jobs_) {
      n += job->inflight();
    }
    for (const auto& src : sources_) {
      n += src->outstanding();
    }
    for (const auto& client : kv_) {
      n += client->io->inflight();
    }
    return n;
  }

  // No tenant issues new I/O after the measurement window. Runs the
  // simulation on (untimed, after the result is built) until no tenant has
  // I/O in flight, then checks conservation across layers: every tenant's
  // own issued and completed counts, and their sums against the stack's own
  // submission and completion counters. A lost completion leaves a tenant
  // in flight; a duplicated one makes a tenant or the stack count more
  // completions than submissions.
  void DrainAndCheckConservation(RepOutput& out) {
    Simulator& sim = env_->sim();
    const Tick limit = env_->measure_end() + kDrainLimit;
    for (Tick t = env_->measure_end(); TenantsInFlight() != 0 && t < limit;) {
      t = std::min(t + def_.slice, limit);
      sim.RunUntil(t);
    }
    Check(out, TenantsInFlight() == 0, "I/O still in flight after the drain");
    uint64_t issued = 0;
    uint64_t completed = 0;
    for (const auto& job : jobs_) {
      issued += job->total_issued();
      completed += job->total_completed();
      Check(out, job->total_issued() == job->total_completed() && job->inflight() == 0,
            "conservation after drain " + job->spec().name);
    }
    for (const auto& src : sources_) {
      const uint64_t admitted = src->total_arrivals() - src->dropped_arrivals();
      issued += admitted;
      completed += src->total_completed();
      Check(out, admitted == src->total_completed() && src->outstanding() == 0,
            "conservation after drain " + src->spec().name);
    }
    for (const auto& client : kv_) {
      // AppIoContext counts issues and in-flight ops only; drained, every
      // issued op has been delivered once.
      issued += KvIssued(*client->io);
      completed += KvIssued(*client->io);
      Check(out, client->io->inflight() == 0,
            "conservation after drain " + client->tenant.name);
    }
    const StorageStack& stack = env_->stack();
    Check(out,
          issued == stack.requests_submitted() && completed == stack.requests_completed(),
          "tenant I/O counts disagree with the stack's: issued " + std::to_string(issued) +
              " submitted " + std::to_string(stack.requests_submitted()) + ", completed " +
              std::to_string(completed) + " stack completed " +
              std::to_string(stack.requests_completed()));
  }

  const WorkloadDef& def_;
  ScenarioConfig cfg_;
  MetricsRegistry registry_;
  std::unique_ptr<ScenarioEnv> env_;
  std::vector<std::unique_ptr<FioJob>> jobs_;
  std::vector<std::unique_ptr<OpenLoopJob>> sources_;
  std::vector<std::unique_ptr<KvClient>> kv_;
  TickDuration busy_at_warmup_;
  ScenarioResult result_;
};

// One repetition of an EnvRun-driven workload: set-up, sliced run, report.
RepOutput RunEnvRep(const WorkloadDef& def, const ScenarioConfig& cfg,
                    SpanLog* spans) {
  RepOutput out;
  EnvRun run(def, cfg, spans, out);
  run.Run(spans, out);
  return out;
}

// blkmq-slo: RunScenario with the SLO observer and trace export, its report
// calls, and the output checks on the finished ScenarioResult.
struct SloRun {
  ScenarioResult result;
  uint64_t fingerprint = 0;
  Cost scenario;  // RunScenario: env build, run, post-run analysis, export
  Cost report;    // ToJson + SimulationFingerprint
};

SloRun RunSloScenario(const ScenarioConfig& cfg, SpanLog* spans,
                      const char* label) {
  SloRun run;
  run.scenario = Timed(spans, label, "workload",
                       [&]() { run.result = RunScenario(cfg); });
  run.report = Timed(spans, "report", "stats", [&]() {
    (void)run.result.ToJson();
    run.fingerprint = run.result.SimulationFingerprint();
  });
  return run;
}

RepOutput RunSloRep(const WorkloadDef& def, const ScenarioConfig& cfg,
                    SpanLog* spans) {
  RepOutput out;
  // Set-up is RunScenario-internal; time the same ScenarioEnv + job
  // construction from outside and discard it (observers configured, as in
  // the measured call).
  {
    RepOutput probe;
    EnvRun setup(def, cfg, spans, probe);
    out.setup = probe.setup;
    out.setup_env_s = probe.setup_env_s;
    out.setup_jobs_s = probe.setup_jobs_s;
  }
  SloRun run = RunSloScenario(cfg, spans, "RunScenario slo+export");
  const ScenarioResult& r = run.result;
  out.run = run.scenario;
  out.run += run.report;
  out.report = run.report;
  out.fingerprint = run.fingerprint;
  out.issued = r.total_issued;
  out.completed = r.total_completed;
  uint64_t max_inflight = 0;
  for (const FioJobSpec& spec : cfg.jobs) {
    max_inflight += static_cast<uint64_t>(spec.iodepth);
  }
  Check(out, r.total_issued >= r.total_completed &&
                 r.total_issued - r.total_completed <= max_inflight,
        "conservation: issued - completed outside [0, sum of iodepths]");
  Check(out, r.total_errored == 0, "errored completions");
  Check(out, r.timeline_total > 0 && r.timeline_dropped == 0,
        "timeline capture dropped records");
  std::string err;
  Check(out, !r.trace_json.empty() && JsonLooksValid(r.trace_json, &err),
        "exported trace is not valid JSON: " + err);
  Check(out, r.slo.tenants.size() == 4, "SLO report does not track the 4 L tenants");
  const GroupStats* l = r.Find("L");
  Check(out, l != nullptr && l->latency.count() > 0, "no L completions");
  out.l_p99_us = static_cast<double>(r.P99Ns("L")) / kMicrosecond;
  out.t_mb_per_s = r.ThroughputBps("T") / 1e6;
  out.layer["stats.trace_mb"] = static_cast<double>(r.trace_json.size()) / 1e6;
  out.layer["stats.timeline_records"] = static_cast<double>(r.timeline_total);
  return out;
}

RepOutput RunRep(const WorkloadDef& def, const ScenarioConfig& cfg, SpanLog* spans) {
  return def.kind == Kind::kBlkmqSlo ? RunSloRep(def, cfg, spans)
                                     : RunEnvRep(def, cfg, spans);
}

// --- Report -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void AppendMetrics(JsonWriter& w, const std::vector<Metric>& metrics) {
  w.BeginObject();
  for (const Metric& m : metrics) {
    w.Key(m.name).BeginObject();
    w.Key("value").Double(m.value);
    w.Key("unit").String(m.unit);
    w.EndObject();
  }
  w.EndObject();
}

struct Args {
  const WorkloadDef* def = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      for (const WorkloadDef& def : kWorkloads) {
        if (val == def.name) {
          args.def = &def;
        }
      }
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(val.c_str());
    } else if (key == "--trace-out") {
      args.trace_out = val;
    } else {
      return false;
    }
  }
  return args.def != nullptr && args.seconds > 0 && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: ddbench --workload dd-mixed|kv-ycsb|blkmq-slo --seed N "
                 "--seconds S [--trace-out PATH]\n");
    return 2;
  }
  const WorkloadDef& def = *args.def;
  const ScenarioConfig cfg = MakeConfig(def, args.seed);

  // Measured repetitions: fixed simulated work each, until the host budget
  // is spent (at least three).
  std::vector<RepOutput> reps;
  const double t0 = WallS();
  while (reps.size() < 3 || WallS() - t0 < args.seconds) {
    reps.push_back(RunRep(def, cfg, nullptr));
  }
  std::vector<double> setup_s, env_s, jobs_s, apps_s, setup_allocs;
  auto add_setup = [&](const RepOutput& rep) {
    setup_s.push_back(rep.setup.cpu_s);
    env_s.push_back(rep.setup_env_s);
    jobs_s.push_back(rep.setup_jobs_s);
    apps_s.push_back(rep.setup_apps_s);
    setup_allocs.push_back(static_cast<double>(rep.setup.allocs));
  };
  for (const RepOutput& rep : reps) {
    add_setup(rep);
  }
  // Extra set-up-only constructions so the set-up median has enough samples.
  while (static_cast<int>(setup_s.size()) < def.min_setups) {
    RepOutput probe;
    EnvRun setup(def, cfg, nullptr, probe);
    add_setup(probe);
  }
  const double peak_rss_mb = PeakRssMb();

  const RepOutput& first = reps.front();
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  auto check_rep = [&](const RepOutput& rep, const char* what) {
    attempted += rep.issued;
    for (const std::string& f : rep.failures) {
      failures.push_back(std::string(what) + ": " + f);
    }
    const bool same = rep.fingerprint == first.fingerprint;
    if (!same) {
      failures.push_back(std::string(what) + ": fingerprint differs from the first run");
    }
    if (!same || !rep.failures.empty()) {
      failed += rep.issued;
    }
  };
  std::vector<double> ios_per_s, run_cpu, run_wall, engine_cpu, engine_wall, report_s,
      run_allocs_per_io, slices;
  for (const RepOutput& rep : reps) {
    check_rep(rep, "repetition");
    ios_per_s.push_back(static_cast<double>(rep.completed) / rep.run.cpu_s);
    run_cpu.push_back(rep.run.cpu_s);
    run_wall.push_back(rep.run.wall_s);
    engine_cpu.push_back(rep.engine.cpu_s);
    engine_wall.push_back(rep.engine.wall_s);
    report_s.push_back(rep.report.cpu_s);
    run_allocs_per_io.push_back(static_cast<double>(rep.run.allocs) /
                                static_cast<double>(std::max<uint64_t>(rep.completed, 1)));
    slices.insert(slices.end(), rep.slice_ms.begin(), rep.slice_ms.end());
  }

  // blkmq-slo's engine profile and simulated layer counts come from
  // observer-free EnvRuns of the same config (one untraced, kLayerSamples
  // traced). Each must reproduce RunScenario's fingerprint exactly, which
  // also proves the observers moved nothing.
  const bool traced_mode = !args.trace_out.empty();
  ScenarioConfig observers_off = cfg;
  observers_off.slos.clear();
  observers_off.export_trace = false;
  RepOutput engine_src = first;
  if (def.kind == Kind::kBlkmqSlo) {
    engine_cpu.clear();
    engine_wall.clear();
    slices.clear();
    for (int i = 0; i < (traced_mode ? kLayerSamples : 1); ++i) {
      engine_src = RunEnvRep(def, observers_off, nullptr);
      check_rep(engine_src, "observer-free EnvRun");
      engine_cpu.push_back(engine_src.engine.cpu_s);
      engine_wall.push_back(engine_src.engine.wall_s);
      slices.insert(slices.end(), engine_src.slice_ms.begin(), engine_src.slice_ms.end());
    }
  }

  // Host interference on a shared machine only ever slows a repetition, in
  // phases of seconds, so the rate the fastest tenth of repetitions reach is
  // far steadier between runs than the median (about half the spread on
  // kv-ycsb). It is still each repetition's own unscaled rate.
  const std::vector<Metric> e2e = {
      {"sim_ios_per_s", Quantile(ios_per_s, 0.9), "IO/s"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"l_p99_us", first.l_p99_us, "sim_us"},
      {"t_mb_per_s", first.t_mb_per_s, "sim_MB/s"},
  };

  // Traced run: the same seed once more with spans recorded, plus (for
  // blkmq-slo) the RunScenario observer twins. Reports the per-layer profile.
  std::vector<Metric> layer;
  if (traced_mode) {
    SpanLog spans;
    RepOutput traced;
    const double traced_cpu = Timed(&spans, "traced-run", "benchmark", [&]() {
                                traced = RunRep(def, cfg, &spans);
                              }).cpu_s;
    check_rep(traced, "traced run");
    double observer_overhead_s = 0.0, slo_holb_s = 0.0, trace_export_s = 0.0;
    if (def.kind == Kind::kBlkmqSlo) {
      // kLayerSamples rounds of the full call and its two twins, interleaved
      // so host drift hits all three alike; the first round's twins are on
      // the trace. The differences are taken between medians.
      ScenarioConfig no_export = cfg;
      no_export.export_trace = false;
      std::vector<double> full_s, off_s, slo_s;
      for (int i = 0; i < kLayerSamples; ++i) {
        SpanLog* twin_spans = i == 0 ? &spans : nullptr;
        const SloRun full = RunSloScenario(cfg, nullptr, "RunScenario slo+export");
        const SloRun off = RunSloScenario(observers_off, twin_spans, "RunScenario observers-off");
        const SloRun slo = RunSloScenario(no_export, twin_spans, "RunScenario slo-no-export");
        full_s.push_back(full.scenario.cpu_s);
        off_s.push_back(off.scenario.cpu_s);
        slo_s.push_back(slo.scenario.cpu_s);
        for (const SloRun* run : {&full, &off, &slo}) {
          if (run->fingerprint != first.fingerprint) {
            failures.push_back("RunScenario fingerprint differs from the first run");
            failed += traced.issued;
          }
        }
      }
      observer_overhead_s = Median(full_s) - Median(off_s);
      trace_export_s = Median(full_s) - Median(slo_s);
      slo_holb_s = Median(slo_s) - Median(off_s);
      // The engine slices of this workload, on the trace too.
      check_rep(RunEnvRep(def, observers_off, &spans), "traced observer-free EnvRun");
    }
    const std::string trace = spans.ToChromeTrace();
    std::string err;
    if (!JsonLooksValid(trace, &err)) {
      failures.push_back("span trace is not valid JSON: " + err);
      failed += traced.issued;
    }
    std::ofstream(args.trace_out, std::ios::binary | std::ios::trunc) << trace;

    const RepOutput& e = engine_src;
    auto sim_layer = [&](const RepOutput& rep, const std::string& name) {
      auto it = rep.layer.find(name);
      return it == rep.layer.end() ? 0.0 : it->second;
    };
    const double events = static_cast<double>(e.events);
    const double eng_cpu = Median(engine_cpu);
    layer = {
        {"sim.engine.run_cpu_s", eng_cpu, "s"},
        {"sim.engine.run_wall_s", Median(engine_wall), "s"},
        {"sim.engine.events", events, "count"},
        {"sim.engine.events_per_io",
         events / static_cast<double>(std::max<uint64_t>(e.completed, 1)), "events/IO"},
        {"sim.engine.ns_per_event", events > 0 ? eng_cpu / events * 1e9 : 0.0, "ns"},
        {"sim.engine.slice_p50_ms", Quantile(slices, 0.5), "ms"},
        {"sim.engine.slice_p95_ms", Quantile(slices, 0.95), "ms"},
    };
    const char* sim_counts[][2] = {
        {"sim.cpu.items", "count"},
        {"sim.cpu.cross_core_posts", "count"},
        {"sim.cpu.util", "ratio"},
        {"stack.requests_submitted", "count"},
        {"stack.requeues", "count"},
        {"stack.doorbells", "count"},
        {"stack.rqs_per_doorbell", "requests"},
        {"stack.cross_core_completions", "count"},
        {"stack.lock_wait_us", "sim_us"},
        {"nvme.commands_fetched", "count"},
        {"nvme.irqs", "count"},
        {"nvme.fetch_stall_us", "sim_us"},
        {"nvme.flushes", "count"},
        {"nvme.fua_persists", "count"},
        {"workload.ios", "count"},
        {"workload.dropped_arrivals", "count"},
        {"apps.kv_ops", "count"},
        {"apps.cache_hit_ratio", "ratio"},
        {"apps.wal_appends", "count"},
        {"apps.flushes", "count"},
        {"apps.compactions", "count"},
        {"model.l.submit_p99_us", "sim_us"},
        {"model.l.nsq_wait_p99_us", "sim_us"},
        {"model.l.fetch_p99_us", "sim_us"},
        {"model.l.flash_p99_us", "sim_us"},
        {"model.l.completion_wait_p99_us", "sim_us"},
        {"model.l.delivery_p99_us", "sim_us"},
    };
    for (const auto& [name, unit] : sim_counts) {
      layer.push_back({name, sim_layer(e, name), unit});
    }
    const std::vector<Metric> host = {
        {"workload.setup.env_s", Median(env_s), "s"},
        {"workload.setup.jobs_s", Median(jobs_s), "s"},
        {"apps.load_s", Median(apps_s), "s"},
        {"stats.report_s", Median(report_s), "s"},
        {"stats.observer_overhead_s", observer_overhead_s, "s"},
        {"stats.slo_holb_s", slo_holb_s, "s"},
        {"stats.trace_export_s", trace_export_s, "s"},
        {"stats.trace_mb", sim_layer(first, "stats.trace_mb"), "MB"},
        {"stats.timeline_records", sim_layer(first, "stats.timeline_records"), "count"},
        {"alloc.setup", Median(setup_allocs), "count"},
        {"alloc.run_per_io", Median(run_allocs_per_io), "allocs/IO"},
        {"trace.overhead_s", traced_cpu - Median(run_cpu) - Median(setup_s), "s"},
    };
    layer.insert(layer.end(), host.begin(), host.end());
  }
  failed = std::min(failed, attempted);

  JsonWriter w;
  w.BeginObject();
  w.Key("header").BeginObject();
  w.Key("workload").String(def.name);
  w.Key("seed").UInt(args.seed);
  w.Key("simulated_ms_per_rep").Double(ToMs(def.warmup + def.duration));
  w.Key("measure_window_ms").Double(ToMs(def.duration));
  w.Key("repetitions").UInt(reps.size());
  w.Key("setup_samples").UInt(setup_s.size());
  w.Key("build_type").String(DD_BENCH_BUILD_TYPE);
  w.Key("dd_invariants").Int(DAREDEVIL_INVARIANTS);
  w.Key("compiler").String(DD_BENCH_COMPILER);
  w.Key("nproc").Int(sysconf(_SC_NPROCESSORS_ONLN));
  w.Key("events_per_rep").UInt(engine_src.events);
  w.Key("fingerprint").String(std::to_string(first.fingerprint));
  w.Key("clocks").BeginObject();
  w.Key("setup").String("thread_cpu, median of set-up samples");
  w.Key("run").String(
      "thread_cpu; sim_ios_per_s is the 90th-percentile repetition rate, layer times "
      "are medians (wall beside: run_wall_s)");
  w.Key("peak_rss").String("getrusage ru_maxrss");
  w.EndObject();
  w.Key("run_wall_s").Double(Median(run_wall));
  w.Key("sim_ios_per_s_median").Double(Median(ios_per_s));
  w.EndObject();
  w.Key("correct").Bool(failures.empty() && DAREDEVIL_INVARIANTS == 0);
  w.Key("attempted").UInt(std::max<uint64_t>(attempted, 1));
  w.Key("failed").UInt(failed);
  w.Key("failures").BeginArray();
  for (const std::string& f : failures) {
    w.String(f);
  }
  w.EndArray();
  w.Key("end_to_end");
  AppendMetrics(w, e2e);
  w.Key("per_layer");
  AppendMetrics(w, layer);
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
