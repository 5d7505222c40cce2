// Determinism gate: the simulation must be a pure function of (scenario,
// seed). Two runs of the same scenario with the same seed must produce
// byte-identical results and trace streams - the fingerprint digests both.
// Any seed-dependent container iteration or hidden wall-clock dependency
// shows up here as a flaky mismatch.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>

#include "src/apps/kvstore.h"
#include "src/apps/ycsb.h"
#include "src/workload/open_loop.h"
#include "src/workload/scenario.h"

namespace daredevil {
namespace {

ScenarioConfig GateConfig(StackKind kind, uint64_t seed) {
  ScenarioConfig cfg = MakeSvmConfig(4);
  cfg.stack = kind;
  cfg.warmup = 2 * kMillisecond;
  cfg.duration = 20 * kMillisecond;
  cfg.seed = seed;
  // Capture the trace stream so the fingerprint covers event-level ordering,
  // not just the aggregated statistics.
  cfg.trace_capacity = 1 << 15;
  AddLTenants(cfg, 2);
  AddTTenants(cfg, 3);
  return cfg;
}

// The gate scenario with a non-trivial fault schedule: every fault kind at a
// low rate, with a watchdog timeout short enough that command drops resolve
// inside the run.
ScenarioConfig FaultGateConfig(StackKind kind, uint64_t seed) {
  ScenarioConfig cfg = GateConfig(kind, seed);
  cfg.faults = MakeDenseFaultPlan(0.02);
  cfg.fault_recovery.timeout = TickDuration{5 * kMillisecond};
  cfg.fault_recovery.backoff = TickDuration{100 * kMicrosecond};
  return cfg;
}

// The gate scenario plus open-loop load: a bursty random reader whose
// max_outstanding drops arrivals, and a sequential writer.
ScenarioConfig OpenLoopGateConfig(StackKind kind, uint64_t seed) {
  ScenarioConfig cfg = GateConfig(kind, seed);
  OpenLoopSpec bursty;
  bursty.name = "olb";
  bursty.iops = 20000;
  bursty.burst_prob = 0.3;
  bursty.burst_len = 8;
  bursty.max_outstanding = 8;
  bursty.core = 2;
  OpenLoopSpec sequential;
  sequential.name = "ols";
  sequential.group = "OLS";
  sequential.ionice = IoniceClass::kBestEffort;
  sequential.pages = 8;
  sequential.random = false;
  sequential.is_write = true;
  sequential.iops = 5000;
  sequential.core = 3;
  cfg.open_loop = {bursty, sequential};
  return cfg;
}

// FNV-1a over a byte string (the digest SimulationFingerprint uses).
uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h = (h ^ c) * 1099511628211ull;
  }
  return h;
}

// The gate scenario with every observer attached: trace ring, sampler, a
// tight L SLO (so episodes, attribution and the SLO track exist) and the
// Chrome-trace export. `faults` adds the dense fault schedule so the fault
// instants render too.
ScenarioConfig ExportGateConfig(StackKind kind, bool faults) {
  ScenarioConfig cfg =
      faults ? FaultGateConfig(kind, /*seed=*/42) : GateConfig(kind, /*seed=*/42);
  cfg.export_trace = true;
  cfg.sample_interval = kMillisecond;
  SloSpec spec;
  spec.selector = "L";
  spec.threshold = 50 * kMicrosecond;
  spec.window = kMillisecond;
  cfg.slos.push_back(spec);
  return cfg;
}

// Each case pins golden digests of the observers' serialized outputs: the
// Chrome-trace JSON and ToJson(true). Any change to these bytes must be
// deliberate and update this table. The blk-switch case is the one that
// renders a "migrate tenant" instant.
struct ExportCase {
  const char* name;
  StackKind kind;
  bool faults;
  uint64_t trace_digest;
  uint64_t report_digest;
};
constexpr ExportCase kExportCases[] = {
    {"Vanilla", StackKind::kVanilla, false, 16329019603426536197ull,
     996073420817321633ull},
    {"Daredevil", StackKind::kDareFull, false, 5290945320233874943ull,
     4851465631709326592ull},
    {"Daredevil+faults", StackKind::kDareFull, true, 6169830412686271398ull,
     1190947527729057524ull},
    {"BlkSwitch", StackKind::kBlkSwitch, false, 3054358102066059710ull,
     5528583906920833239ull},
};

// Digests of everything the observers serialize for one export case: the
// Chrome trace and the full report (ToJson(true): HOL, SLO, sampler).
struct ExportDigests {
  uint64_t trace = 0;
  uint64_t report = 0;
};

ExportDigests DigestExport(const ExportCase& c) {
  const ScenarioResult r = RunScenario(ExportGateConfig(c.kind, c.faults));
  return {Fnv1a(r.trace_json), Fnv1a(r.ToJson(true))};
}

// Every traffic source in one environment, hand-built rather than through
// ScenarioEnv::Start so it pins each source's own issue and delivery path:
// an L FioJob with REQ_SYNC/REQ_META draws, think time and core migrations,
// a sequential T writer with outlier requests and ionice updates, a bursty
// random OpenLoopJob whose max_outstanding drops arrivals, a sequential
// OpenLoopJob, and a YCSB-A KvStore client over an AppIoContext (FUA WAL
// writes, memtable flushes with their flush barriers, block reads). The
// digest covers each source's public counters, latency and stage JSON, the
// SLO report fed by the FioJob and the app, the L group's time series, the
// metrics snapshot and the trace ring.
uint64_t MixedSourcesDigest() {
  ScenarioConfig cfg = MakeSvmConfig(4);
  cfg.stack = StackKind::kDareFull;
  cfg.seed = 42;
  cfg.warmup = 2 * kMillisecond;
  cfg.duration = 20 * kMillisecond;
  cfg.trace_capacity = 1 << 15;
  ScenarioEnv env(cfg);
  Machine& machine = env.machine();
  StorageStack& stack = env.stack();
  const Tick start = env.measure_start();
  const Tick end = env.measure_end();

  MetricsRegistry registry;
  env.shard().AttachMetrics(&registry);
  RegisterMachineMetrics(machine, &registry);
  env.device().RegisterMetrics(&registry);
  stack.RegisterMetrics(&registry);
  SloSpec l_slo;
  l_slo.selector = "L";
  l_slo.threshold = 100 * kMicrosecond;
  l_slo.window = kMillisecond;
  SloSpec app_slo = l_slo;
  app_slo.selector = "APP";
  SloTracker slo({l_slo, app_slo}, start, end);
  TimeSeries l_latency(0, kMillisecond);
  TimeSeries l_bytes(0, kMillisecond);

  FioJobSpec l_spec = LTenantSpec(0);
  l_spec.sync_prob = 0.3;
  l_spec.meta_prob = 0.2;
  l_spec.think_time = TickDuration{20 * kMicrosecond};
  // Frequent enough that some hops land between an issue and its syscall.
  l_spec.migrate_interval = TickDuration{10 * kMicrosecond};
  FioJob l_job(&machine, &stack, l_spec, 1, 0, env.shard().rng().Fork(), start,
               end);
  l_job.AttachMetrics(&registry);
  l_job.AttachSeries(&l_latency, &l_bytes);
  l_job.AttachSlo(slo.AddTenant(l_job.tenant().name, l_job.tenant().group,
                                l_job.tenant().id.value()));
  // REQ_SYNC / REQ_META only reroute best-effort tenants' requests.
  FioJobSpec t_spec = TTenantSpec(0);
  t_spec.sync_prob = 0.05;
  t_spec.meta_prob = 0.05;
  t_spec.ionice_update_interval = TickDuration{100 * kMicrosecond};
  FioJob t_job(&machine, &stack, t_spec, 2, 1, env.shard().rng().Fork(), start,
               end);
  t_job.AttachMetrics(&registry);

  OpenLoopSpec bursty;
  bursty.name = "olb";
  bursty.iops = 10000;
  bursty.burst_prob = 0.3;
  bursty.burst_len = 8;
  bursty.max_outstanding = 8;
  bursty.core = 2;
  OpenLoopJob bursty_job(&machine, &stack, bursty, 3, env.shard().rng().Fork(),
                         start, end);
  OpenLoopSpec sequential;
  sequential.name = "ols";
  sequential.group = "OLS";
  sequential.ionice = IoniceClass::kBestEffort;
  sequential.pages = 8;
  sequential.random = false;
  sequential.is_write = true;
  sequential.iops = 5000;
  sequential.core = 3;
  OpenLoopJob seq_job(&machine, &stack, sequential, 4,
                      env.shard().rng().Fork(), start, end);

  Tenant kv_tenant;
  kv_tenant.id = TenantId{5};
  kv_tenant.name = "kv";
  kv_tenant.group = "APP";
  kv_tenant.ionice = IoniceClass::kRealtime;
  kv_tenant.core = 3;
  stack.OnTenantStart(&kv_tenant);
  AppIoContext io(&machine, &stack, &kv_tenant, /*nsid=*/0);
  io.AttachSlo(slo.AddTenant(kv_tenant.name, kv_tenant.group, 5));
  KvStoreConfig kv_cfg;
  kv_cfg.memtable_entries = 4;
  KvStore store(&io, kv_cfg, env.shard().rng().Fork());
  store.Load(2000);
  YcsbConfig ycsb_cfg;
  ycsb_cfg.workload = 'A';
  ycsb_cfg.record_count = 2000;
  YcsbWorkload ycsb(&store, ycsb_cfg, env.shard().rng().Fork(), &env.sim(),
                    start, end);

  l_job.Start();
  t_job.Start();
  bursty_job.Start();
  seq_job.Start();
  ycsb.Start();
  env.sim().RunUntil(end);

  std::string out;
  auto add = [&out](std::string_view key, uint64_t v) {
    out += std::string(key) + "=" + std::to_string(v) + ";";
  };
  auto add_dist = [&out](const Histogram& latency, const StageBreakdown& stages) {
    JsonWriter w;
    w.BeginObject().Key("latency");
    AppendHistogramJson(w, latency);
    w.Key("stages");
    stages.AppendJson(w);
    w.EndObject();
    out += w.str();
  };
  for (const FioJob* job : {&l_job, &t_job}) {
    EXPECT_EQ(job->total_issued(),
              job->total_completed() + static_cast<uint64_t>(job->inflight()))
        << job->spec().name;
    add(job->spec().name, job->total_issued());
    add("completed", job->total_completed());
    add("errored", job->total_errored());
    add("inflight", static_cast<uint64_t>(job->inflight()));
    add("ios", job->measured_ios());
    add("bytes", job->measured_bytes());
    add_dist(job->latency(), job->stages());
  }
  for (const OpenLoopJob* src : {&bursty_job, &seq_job}) {
    EXPECT_EQ(src->total_arrivals(),
              src->dropped_arrivals() + src->total_completed() +
                  static_cast<uint64_t>(src->outstanding()))
        << src->spec().name;
    add(src->spec().name, src->total_arrivals());
    add("dropped", src->dropped_arrivals());
    add("completed", src->total_completed());
    add("errored", src->total_errored());
    add("outstanding", static_cast<uint64_t>(src->outstanding()));
    add("ios", src->measured_ios());
    add_dist(src->latency(), src->stages());
  }
  EXPECT_GT(bursty_job.dropped_arrivals(), 0u);
  add("kv.reads", io.reads_issued());
  add("kv.writes", io.writes_issued());
  add("kv.flushes", io.flushes_issued());
  add("kv.pages", io.pages_transferred());
  add("kv.inflight", static_cast<uint64_t>(io.inflight()));
  add("kv.ops", ycsb.total_ops());
  add("kv.wal", store.wal_appends());
  add("kv.memtable_flushes", store.flushes());
  add("kv.checkpoint", store.acked_checkpoint_lsn());
  add("kv.cache_misses", store.cache_misses());
  EXPECT_GT(io.flushes_issued(), 0u);
  EXPECT_GT(io.reads_issued(), 0u);
  for (size_t i = 0; i < l_latency.num_windows(); ++i) {
    add("series", l_latency.WindowCount(i));
    add("sum", static_cast<uint64_t>(l_latency.WindowSum(i)));
    add("bytes", static_cast<uint64_t>(l_bytes.WindowSum(i)));
  }
  JsonWriter slo_json;
  slo.Finalize().AppendJson(slo_json);
  out += slo_json.str();
  out += registry.ToJson();
  add("events", env.sim().events_processed());
  std::ostringstream csv;
  env.trace_log()->WriteCsv(csv);
  add("trace", Fnv1a(csv.str()));
  add("trace_total", env.trace_log()->total_recorded());
  return Fnv1a(out);
}

class DeterminismGate : public ::testing::TestWithParam<StackKind> {};

TEST_P(DeterminismGate, SameSeedSameFingerprint) {
  const ScenarioConfig cfg = GateConfig(GetParam(), /*seed=*/42);
  const ScenarioResult a = RunScenario(cfg);
  const ScenarioResult b = RunScenario(cfg);

  EXPECT_GT(a.total_completed, 0u);
  EXPECT_NE(a.trace_hash, 0u);
  EXPECT_EQ(a.trace_hash, b.trace_hash)
      << "trace streams diverged for " << StackKindName(GetParam());
  EXPECT_EQ(a.SimulationFingerprint(), b.SimulationFingerprint())
      << "results diverged for " << StackKindName(GetParam());
  // The fingerprint digests the JSON; if it matches, the serialized results
  // should match byte-for-byte too (guards against hash collisions hiding a
  // real divergence in this very test).
  EXPECT_EQ(a.ToJson(), b.ToJson());
}

TEST_P(DeterminismGate, DifferentSeedDifferentFingerprint) {
  const ScenarioResult a = RunScenario(GateConfig(GetParam(), /*seed=*/42));
  const ScenarioResult b = RunScenario(GetParam() == StackKind::kVanilla
                                           ? GateConfig(GetParam(), 43)
                                           : GateConfig(GetParam(), 1234));
  // Seeds drive arrival jitter and access patterns; identical fingerprints
  // would mean the seed is ignored (or the fingerprint is degenerate).
  EXPECT_NE(a.SimulationFingerprint(), b.SimulationFingerprint())
      << StackKindName(GetParam());
}

std::string GateName(const ::testing::TestParamInfo<StackKind>& info) {
  switch (info.param) {
    case StackKind::kVanilla:
      return "Vanilla";
    case StackKind::kStaticSplit:
      return "StaticSplit";
    case StackKind::kBlkSwitch:
      return "BlkSwitch";
    case StackKind::kDareBase:
      return "DareBase";
    case StackKind::kDareSched:
      return "DareSched";
    case StackKind::kDareFull:
      return "Daredevil";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(Stacks, DeterminismGate,
                         ::testing::Values(StackKind::kVanilla,
                                           StackKind::kStaticSplit,
                                           StackKind::kBlkSwitch,
                                           StackKind::kDareBase,
                                           StackKind::kDareFull),
                         GateName);

TEST(DeterminismGate, ObservabilityDoesNotPerturbSimulatedTime) {
  // The exporter, sampler and HOL analyzer are pure observers: turning them
  // all on must not move a single simulated event. The fingerprint digests
  // the observability-free projection of the result, so it must match
  // between a plain run and a fully instrumented one.
  const ScenarioConfig plain = GateConfig(StackKind::kVanilla, /*seed=*/42);
  ScenarioConfig traced = plain;
  traced.export_trace = true;
  traced.sample_interval = kMillisecond;
  const ScenarioResult a = RunScenario(plain);
  const ScenarioResult b = RunScenario(traced);
  EXPECT_FALSE(b.trace_json.empty());
  EXPECT_FALSE(b.holb.empty());
  EXPECT_FALSE(b.sampler.empty());
  EXPECT_EQ(a.SimulationFingerprint(), b.SimulationFingerprint())
      << "enabling trace export / sampling / HOL analysis changed the "
         "simulation";
}

TEST(DeterminismGate, TraceExportIsByteIdentical) {
  ScenarioConfig cfg = GateConfig(StackKind::kDareFull, /*seed=*/42);
  cfg.export_trace = true;
  cfg.sample_interval = kMillisecond;
  const ScenarioResult a = RunScenario(cfg);
  const ScenarioResult b = RunScenario(cfg);
  ASSERT_FALSE(a.trace_json.empty());
  EXPECT_EQ(a.trace_json, b.trace_json)
      << "same-seed runs must export byte-identical traces";
}

// Golden faults-off fingerprints for the gate scenario (seed 42), recorded
// when the fault-injection layer landed. CI additionally regenerates these
// via FingerprintManifest in both build configs (Debug/invariants-ON and
// Release/OFF) and diffs them, so the constants are config-independent. A
// mismatch here means a change moved the fault-free simulation - if that was
// intentional, update this table in the same commit and say so.
struct GoldenFingerprint {
  StackKind kind;
  uint64_t fingerprint;
  uint64_t trace_hash;
  bool open_loop = false;  // OpenLoopGateConfig instead of GateConfig
};
constexpr GoldenFingerprint kGoldenFingerprints[] = {
    {StackKind::kVanilla, 16706100600092867395ull, 4580788066272524879ull},
    {StackKind::kStaticSplit, 16208319676165017738ull, 10078876820672934669ull},
    {StackKind::kBlkSwitch, 16616661676804479412ull, 13924621214163013484ull},
    {StackKind::kDareBase, 13404699886219054779ull, 9808033404675582731ull},
    {StackKind::kDareFull, 2357443079684649269ull, 14135888807379484863ull},
    // Pins ScenarioConfig::open_loop wiring: ids and RNG forks after the
    // FIO jobs', the sources' groups and the dropped-arrival gauge.
    {StackKind::kDareFull, 8247709236339194841ull, 8387695748662132892ull,
     /*open_loop=*/true},
};

ScenarioConfig GoldenConfig(const GoldenFingerprint& golden) {
  return golden.open_loop ? OpenLoopGateConfig(golden.kind, /*seed=*/42)
                          : GateConfig(golden.kind, /*seed=*/42);
}

std::string GoldenName(const GoldenFingerprint& golden) {
  return std::string(StackKindName(golden.kind)) +
         (golden.open_loop ? "+open-loop" : "");
}

TEST(DeterminismGate, FingerprintManifest) {
  // Emits the per-stack fingerprints so different build configurations can be
  // diffed against each other. CI builds the tree twice - Debug with
  // DAREDEVIL_INVARIANTS=ON and Release with OFF - runs this test in both
  // with DD_FINGERPRINT_OUT set, and diffs the two files: DD_CHECK must have
  // no fingerprint-visible side effects, and neither may the optimizer.
  std::string manifest;
  for (const GoldenFingerprint& golden : kGoldenFingerprints) {
    const ScenarioResult r = RunScenario(GoldenConfig(golden));
    EXPECT_GT(r.total_completed, 0u) << GoldenName(golden);
    manifest += GoldenName(golden) + " " +
                std::to_string(r.SimulationFingerprint()) + " " +
                std::to_string(r.trace_hash) + "\n";
  }
  // The observers' serialized outputs too: the exporter and the HOL / SLO
  // reports must not depend on build type or invariants either.
  for (const ExportCase& c : kExportCases) {
    const ExportDigests d = DigestExport(c);
    manifest += std::string("export ") + c.name + " " +
                std::to_string(d.trace) + " " + std::to_string(d.report) +
                "\n";
  }
  manifest += "mixed-sources " + std::to_string(MixedSourcesDigest()) + "\n";
  printf("fingerprint manifest:\n%s", manifest.c_str());
  if (const char* out = std::getenv("DD_FINGERPRINT_OUT")) {
    FILE* f = fopen(out, "w");
    ASSERT_NE(f, nullptr) << "cannot open DD_FINGERPRINT_OUT=" << out;
    fputs(manifest.c_str(), f);
    fclose(f);
  }
}

TEST(DeterminismGate, FaultsOffMatchesRecordedFingerprints) {
  for (const GoldenFingerprint& golden : kGoldenFingerprints) {
    const ScenarioResult r = RunScenario(GoldenConfig(golden));
    EXPECT_EQ(r.SimulationFingerprint(), golden.fingerprint)
        << GoldenName(golden)
        << ": fault-free fingerprint drifted from the recorded baseline";
    EXPECT_EQ(r.trace_hash, golden.trace_hash)
        << GoldenName(golden) << ": trace stream drifted";
  }
}

TEST(DeterminismGate, ExportAndReportBytesMatchRecordedDigests) {
  for (const ExportCase& c : kExportCases) {
    const ExportDigests d = DigestExport(c);
    EXPECT_EQ(d.trace, c.trace_digest) << c.name << ": trace export bytes drifted";
    EXPECT_EQ(d.report, c.report_digest)
        << c.name << ": ToJson(true) bytes drifted";
  }
}

// Recorded before FioJob, OpenLoopJob and AppIoContext were rebuilt over one
// tenant I/O core (src/stack/tenant_io.h); like the goldens above, a change
// here must be deliberate.
constexpr uint64_t kMixedSourcesDigest = 9243415276810741799ull;

TEST(DeterminismGate, MixedSourcesMatchRecordedDigest) {
  const uint64_t digest = MixedSourcesDigest();
  EXPECT_EQ(digest, MixedSourcesDigest()) << "same-seed runs diverged";
  EXPECT_EQ(digest, kMixedSourcesDigest)
      << "a traffic source's issue or delivery path drifted";
}

class FaultDeterminismGate : public ::testing::TestWithParam<StackKind> {};

TEST_P(FaultDeterminismGate, SameSeedSameFingerprintUnderFaults) {
  // Fault injection must be as deterministic as the healthy path: the plan
  // consults its own seeded Rng in event order, so two same-seed runs inject
  // the same faults at the same instants and the full result - fingerprint,
  // trace stream, and error accounting - is byte-identical.
  const ScenarioConfig cfg = FaultGateConfig(GetParam(), /*seed=*/42);
  const ScenarioResult a = RunScenario(cfg);
  const ScenarioResult b = RunScenario(cfg);

  ASSERT_TRUE(a.faults_attached);
  EXPECT_GT(a.fault_injections(), 0u)
      << StackKindName(GetParam()) << ": dense plan never fired";
  EXPECT_EQ(a.SimulationFingerprint(), b.SimulationFingerprint())
      << "faulted runs diverged for " << StackKindName(GetParam());
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  // Full JSON includes the errors section: identical fault/retry/abort
  // accounting, not just identical aggregate outcomes.
  EXPECT_EQ(a.ToJson(), b.ToJson());
}

TEST_P(FaultDeterminismGate, FaultsPerturbTheFingerprint) {
  // The dense plan must actually change the simulation (otherwise the matrix
  // above is vacuous) - and a different seed must inject differently.
  const ScenarioResult clean = RunScenario(GateConfig(GetParam(), /*seed=*/42));
  const ScenarioResult faulted =
      RunScenario(FaultGateConfig(GetParam(), /*seed=*/42));
  EXPECT_NE(clean.SimulationFingerprint(), faulted.SimulationFingerprint())
      << StackKindName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Stacks, FaultDeterminismGate,
                         ::testing::Values(StackKind::kVanilla,
                                           StackKind::kStaticSplit,
                                           StackKind::kBlkSwitch,
                                           StackKind::kDareBase,
                                           StackKind::kDareFull),
                         GateName);

TEST(DeterminismGate, SloTrackingDoesNotPerturbFingerprints) {
  // The SLO tracker is the third observer class after tracing and sampling:
  // configuring specs attaches the timeline capture and feeds per-delivery
  // callbacks, but none of that may move a simulated event. Gate it the same
  // way as tracing - each stack's fingerprint AND trace stream must still
  // match the pinned goldens with tracking enabled.
  for (const GoldenFingerprint& golden : kGoldenFingerprints) {
    ScenarioConfig cfg = GoldenConfig(golden);
    SloSpec spec;
    spec.selector = "L";
    spec.threshold = 300 * kMicrosecond;
    spec.window = kMillisecond;
    cfg.slos.push_back(spec);
    const ScenarioResult r = RunScenario(cfg);
    EXPECT_FALSE(r.slo.empty())
        << GoldenName(golden) << ": spec matched no tenant";
    EXPECT_EQ(r.SimulationFingerprint(), golden.fingerprint)
        << GoldenName(golden)
        << ": enabling SLO tracking moved the fingerprint";
    EXPECT_EQ(r.trace_hash, golden.trace_hash)
        << GoldenName(golden)
        << ": enabling SLO tracking moved the trace stream";
  }
}

TEST(DeterminismGate, SloReportIsByteStable) {
  // The serialized report (windows, burn rates, episodes, attribution) is
  // part of ToJson(true): two same-seed runs must agree byte-for-byte.
  ScenarioConfig cfg = GateConfig(StackKind::kVanilla, /*seed=*/42);
  SloSpec spec;
  spec.selector = "L";
  // Tight threshold: violations (and thus episodes + attribution) exist, so
  // this exercises the full report, not just the conformance scalars.
  spec.threshold = 50 * kMicrosecond;
  spec.window = kMillisecond;
  cfg.slos.push_back(spec);
  const ScenarioResult a = RunScenario(cfg);
  const ScenarioResult b = RunScenario(cfg);
  ASSERT_FALSE(a.slo.empty());
  EXPECT_EQ(a.ToJson(), b.ToJson());
  // And the projection the fingerprint digests must not contain the report.
  EXPECT_EQ(a.ToJson(false).find("\"slo\""), std::string::npos);
}

TEST(DeterminismGate, FingerprintWithoutTraceStillStable) {
  ScenarioConfig cfg = GateConfig(StackKind::kDareFull, 7);
  cfg.trace_capacity = 0;
  const ScenarioResult a = RunScenario(cfg);
  const ScenarioResult b = RunScenario(cfg);
  EXPECT_EQ(a.trace_hash, 0u);
  EXPECT_EQ(a.SimulationFingerprint(), b.SimulationFingerprint());
}

// ---------------------------------------------------------------------------
// Crash + recovery determinism: a whole-machine crash at a fixed event index
// followed by WAL replay is part of the simulated outcome, so it must be as
// bit-reproducible as the healthy path. Two same-seed runs crash at the same
// instant, collapse the same persisted state, and recover the same store.
// ---------------------------------------------------------------------------

// Digest of everything crash recovery produced: the recovery report, the
// acked-set size, the persisted snapshot shape, and the per-key serveability
// bitmap. FNV-1a like SimulationFingerprint.
uint64_t CrashRecoveryDigest(StackKind kind) {
  ScenarioConfig cfg = MakeSvmConfig(2);
  cfg.stack = kind;
  cfg.seed = 42;
  ScenarioEnv env(cfg);
  Tenant tenant;
  tenant.id = TenantId{1};
  tenant.name = "kv";
  tenant.group = "APP";
  tenant.core = 0;
  env.stack().OnTenantStart(&tenant);
  AppIoContext io(&env.machine(), &env.stack(), &tenant, /*nsid=*/0);
  KvStoreConfig kv_cfg;
  kv_cfg.memtable_entries = 10;
  KvStore store(&io, kv_cfg, Rng(cfg.seed));

  uint64_t issued = 0;
  uint64_t acked = 0;
  std::function<void()> put_next = [&]() {
    if (issued >= 32) {
      return;
    }
    store.Put(issued++ * 3, [&]() {
      ++acked;
      put_next();
    });
  };
  put_next();
  constexpr uint64_t kCrashEvent = 700;
  while (env.sim().events_processed() < kCrashEvent && env.sim().Step()) {
  }
  env.device().Crash();
  const KvRecoveryReport rep = store.Recover([&](uint64_t lba) {
    return env.device().PersistedAt(/*nsid=*/0, Lba{lba});
  });

  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
  };
  mix(env.sim().events_processed());
  mix(acked);
  mix(rep.scanned);
  mix(rep.replayed);
  mix(rep.torn);
  mix(rep.lost_unacked);
  mix(rep.lost_acked);
  mix(store.acked_checkpoint_lsn());
  mix(env.device().persisted_page_count());
  mix(env.device().flushes_completed());
  mix(env.device().fua_persists());
  for (uint64_t key = 0; key < 32 * 3; ++key) {
    mix(store.Contains(key) ? key + 1 : 0);
  }
  return h;
}

class CrashRecoveryDeterminismGate : public ::testing::TestWithParam<StackKind> {
};

TEST_P(CrashRecoveryDeterminismGate, SameSeedSameRecoveredState) {
  const uint64_t a = CrashRecoveryDigest(GetParam());
  const uint64_t b = CrashRecoveryDigest(GetParam());
  EXPECT_EQ(a, b) << "crash+recover diverged for "
                  << StackKindName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Stacks, CrashRecoveryDeterminismGate,
                         ::testing::Values(StackKind::kVanilla,
                                           StackKind::kStaticSplit,
                                           StackKind::kBlkSwitch,
                                           StackKind::kDareBase,
                                           StackKind::kDareFull),
                         GateName);

}  // namespace
}  // namespace daredevil
