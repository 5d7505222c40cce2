// Unit tests for the workload layer: FIO jobs, scenario runner, determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/kvstore.h"
#include "src/apps/ycsb.h"
#include "src/core/daredevil_stack.h"
#include "src/workload/scenario.h"

namespace daredevil {
namespace {

ScenarioConfig TinyConfig(StackKind kind) {
  ScenarioConfig cfg = MakeSvmConfig(/*cores=*/2);
  cfg.stack = kind;
  cfg.warmup = 2 * kMillisecond;
  cfg.duration = 20 * kMillisecond;
  cfg.device.nr_nsq = 8;
  cfg.device.nr_ncq = 8;
  return cfg;
}

TEST(FioJobTest, ClosedLoopKeepsIodepth) {
  ScenarioConfig cfg = TinyConfig(StackKind::kVanilla);
  ScenarioEnv env(cfg);
  FioJobSpec spec = TTenantSpec(0);
  spec.iodepth = 4;
  spec.pages = 1;
  Rng rng(1);
  FioJob job(&env.machine(), &env.stack(), spec, 1, 0, rng, 0,
             env.measure_end());
  job.Start();
  env.sim().RunUntil(5 * kMillisecond);
  // In steady closed loop, issued - completed == inflight <= iodepth.
  EXPECT_LE(job.inflight(), 4);
  EXPECT_GT(job.total_completed(), 0u);
  EXPECT_EQ(job.total_issued(),
            job.total_completed() + static_cast<uint64_t>(job.inflight()));
}

TEST(FioJobTest, StopTimeHaltsIssuing) {
  ScenarioConfig cfg = TinyConfig(StackKind::kVanilla);
  ScenarioEnv env(cfg);
  FioJobSpec spec = LTenantSpec(0);
  spec.stop_time = 3 * kMillisecond;
  Rng rng(1);
  FioJob job(&env.machine(), &env.stack(), spec, 1, 0, rng, 0,
             env.measure_end());
  job.Start();
  env.sim().RunUntil(4 * kMillisecond);
  const uint64_t at_stop = job.total_issued();
  env.sim().RunUntil(10 * kMillisecond);
  EXPECT_EQ(job.total_issued(), at_stop);
  EXPECT_EQ(job.inflight(), 0);
}

TEST(FioJobTest, StartTimeDelaysFirstIssue) {
  ScenarioConfig cfg = TinyConfig(StackKind::kVanilla);
  ScenarioEnv env(cfg);
  FioJobSpec spec = LTenantSpec(0);
  spec.start_time = 5 * kMillisecond;
  Rng rng(1);
  FioJob job(&env.machine(), &env.stack(), spec, 1, 0, rng, 0,
             env.measure_end());
  job.Start();
  env.sim().RunUntil(4 * kMillisecond);
  EXPECT_EQ(job.total_issued(), 0u);
  env.sim().RunUntil(8 * kMillisecond);
  EXPECT_GT(job.total_issued(), 0u);
}

TEST(FioJobTest, SyncProbabilityMarksOutliers) {
  ScenarioConfig cfg = TinyConfig(StackKind::kDareFull);
  ScenarioEnv env(cfg);
  FioJobSpec spec = TTenantSpec(0);
  spec.sync_prob = 1.0;  // every request is an outlier
  Rng rng(1);
  FioJob job(&env.machine(), &env.stack(), spec, 1, 0, rng, 0,
             env.measure_end());
  job.Start();
  env.sim().RunUntil(10 * kMillisecond);
  // All requests from this BE tenant must have routed to high-prio NSQs.
  auto* dd = dynamic_cast<DaredevilStack*>(&env.stack());
  ASSERT_NE(dd, nullptr);
  for (int nsq = 0; nsq < env.device().nr_nsq(); ++nsq) {
    if (env.device().nsq(nsq).submitted_rqs() > 0) {
      EXPECT_EQ(dd->nqreg().GroupOfNsq(nsq), NqPrio::kHigh);
    }
  }
}

// Draws stream start pages the way FioJob and OpenLoopJob do.
class StreamProbe : public TenantIo {
 public:
  explicit StreamProbe(ScenarioEnv& env)
      : TenantIo(&env.machine(), &env.stack(),
                 Tenant{TenantId{1}, "probe", "T", IoniceClass::kBestEffort,
                        /*core=*/0, /*primary_nsid=*/0},
                 0, 0) {}
  Lba Next(bool random, uint32_t pages) {
    return NextStreamLba(rng_, random, pages, cursor_);
  }

 private:
  Rng rng_{7};
  uint64_t cursor_ = 0;
};

TEST(TenantIoTest, StreamLbasStayInsideTheNamespace) {
  ScenarioConfig cfg = TinyConfig(StackKind::kVanilla);
  cfg.device.namespace_pages = {64};
  ScenarioEnv env(cfg);
  StreamProbe probe(env);
  // Sequential: every aligned 16-page slot in order, then wrap to 0.
  for (uint64_t want : {0, 16, 32, 48, 0, 16}) {
    EXPECT_EQ(probe.Next(/*random=*/false, 16).value(), want);
  }
  // Random: any start that keeps the whole I/O inside the namespace.
  uint64_t highest = 0;
  for (int i = 0; i < 1000; ++i) {
    highest = std::max(highest, probe.Next(/*random=*/true, 16).value());
  }
  EXPECT_EQ(highest, 48u);
}

#if DAREDEVIL_INVARIANTS

// Shape checks on a closed-loop job. Unchecked, a zero-page spec divides by
// zero (SIGFPE) when the constructor picks the sequential start offset.
class FioJobDeathTest : public ::testing::Test {
 protected:
  static void Build(uint32_t pages) {
    ScenarioConfig cfg = TinyConfig(StackKind::kVanilla);
    cfg.device.namespace_pages = {16};
    ScenarioEnv env(cfg);
    FioJobSpec spec = TTenantSpec(0);
    spec.pages = pages;
    FioJob job(&env.machine(), &env.stack(), spec, 1, 0, Rng(1), 0,
               env.measure_end());
  }
};

TEST_F(FioJobDeathTest, ZeroPagesAborts) {
  EXPECT_DEATH(Build(0), "tenant T0 issues empty I/Os");
}

TEST_F(FioJobDeathTest, WiderThanNamespaceAborts) {
  EXPECT_DEATH(Build(32), "tenant T0 I/O \\[0, 32\\) overruns namespace 0 "
                          "\\(16 pages\\)");
}

#endif  // DAREDEVIL_INVARIANTS

TEST(ScenarioTest, ConservationAcrossStacks) {
  for (StackKind kind : {StackKind::kVanilla, StackKind::kStaticSplit,
                         StackKind::kBlkSwitch, StackKind::kDareBase,
                         StackKind::kDareSched, StackKind::kDareFull}) {
    ScenarioConfig cfg = TinyConfig(kind);
    AddLTenants(cfg, 2);
    AddTTenants(cfg, 2);
    const ScenarioResult r = RunScenario(cfg);
    EXPECT_GT(r.total_completed, 0u) << StackKindName(kind);
    // Closed loop: everything issued either completed or is still in flight
    // (bounded by total iodepth).
    EXPECT_LE(r.total_issued - r.total_completed, 2u * 1 + 2u * 32)
        << StackKindName(kind);
    EXPECT_GE(r.requests_submitted(), r.requests_completed());
  }
}

TEST(ScenarioTest, DeterministicForSameSeed) {
  ScenarioConfig cfg = TinyConfig(StackKind::kDareFull);
  AddLTenants(cfg, 2);
  AddTTenants(cfg, 4);
  cfg.seed = 1234;
  const ScenarioResult a = RunScenario(cfg);
  const ScenarioResult b = RunScenario(cfg);
  EXPECT_EQ(a.total_completed, b.total_completed);
  EXPECT_EQ(a.Find("L")->ios, b.Find("L")->ios);
  EXPECT_EQ(a.Find("T")->bytes, b.Find("T")->bytes);
  EXPECT_EQ(a.P999Ns("L"), b.P999Ns("L"));
  EXPECT_EQ(a.irqs_total(), b.irqs_total());
}

TEST(ScenarioTest, DifferentSeedsDiffer) {
  ScenarioConfig cfg = TinyConfig(StackKind::kVanilla);
  AddLTenants(cfg, 2);
  AddTTenants(cfg, 4);
  cfg.seed = 1;
  const ScenarioResult a = RunScenario(cfg);
  cfg.seed = 2;
  const ScenarioResult b = RunScenario(cfg);
  // The workloads are random; identical aggregates would be a seed-plumbing
  // bug (latency histograms are the most sensitive).
  EXPECT_NE(a.AvgLatencyNs("L"), b.AvgLatencyNs("L"));
}

TEST(ScenarioTest, GroupsAggregateByLabel) {
  ScenarioConfig cfg = TinyConfig(StackKind::kVanilla);
  AddLTenants(cfg, 3);
  AddTTenants(cfg, 2);
  const ScenarioResult r = RunScenario(cfg);
  ASSERT_NE(r.Find("L"), nullptr);
  ASSERT_NE(r.Find("T"), nullptr);
  EXPECT_EQ(r.Find("X"), nullptr);
  EXPECT_GT(r.Iops("L"), 0.0);
  EXPECT_GT(r.ThroughputBps("T"), 0.0);
  EXPECT_GT(r.cpu_util, 0.0);
  EXPECT_LE(r.cpu_util, 1.0);
}

TEST(ScenarioTest, SeriesCollectedWhenRequested) {
  ScenarioConfig cfg = TinyConfig(StackKind::kVanilla);
  cfg.series_window = 5 * kMillisecond;
  AddLTenants(cfg, 1);
  const ScenarioResult r = RunScenario(cfg);
  ASSERT_EQ(r.latency_series.count("L"), 1u);
  EXPECT_GT(r.latency_series.at("L").num_windows(), 1u);
}

TEST(ScenarioTest, ExplicitCoresRespected) {
  // An explicit core is kept; the other specs take the cores round-robin,
  // and tenant ids follow spec order from 1.
  ScenarioConfig cfg = TinyConfig(StackKind::kVanilla);
  AddLTenants(cfg, 4);
  cfg.jobs[1].core = 1;
  ScenarioEnv env(cfg);
  env.Start();
  const int want_cores[] = {0, 1, 1, 0};
  ASSERT_EQ(env.jobs().size(), 4u);
  for (size_t i = 0; i < env.jobs().size(); ++i) {
    EXPECT_EQ(env.jobs()[i]->tenant().core, want_cores[i]) << "spec " << i;
    EXPECT_EQ(env.jobs()[i]->tenant().id.value(), i + 1) << "spec " << i;
  }
}

TEST(ScenarioTest, OpenLoopSpecsJoinTheRun) {
  // Two bursty sources that overflow max_outstanding, next to FIO jobs,
  // with a series window and an SLO on their group.
  ScenarioConfig cfg = TinyConfig(StackKind::kVanilla);
  AddLTenants(cfg, 1);
  AddTTenants(cfg, 2);
  OpenLoopSpec spec;
  spec.name = "ol0";
  spec.iops = 20000;
  spec.burst_prob = 0.3;
  spec.max_outstanding = 4;
  cfg.open_loop.push_back(spec);
  spec.name = "ol1";
  spec.core = 1;
  cfg.open_loop.push_back(spec);
  cfg.series_window = 5 * kMillisecond;
  SloSpec slo;
  slo.selector = "OL";
  slo.threshold = 100 * kMicrosecond;
  slo.window = kMillisecond;
  cfg.slos.push_back(slo);

  ScenarioEnv env(cfg);
  env.Start();
  env.sim().RunUntil(env.measure_end());
  const ScenarioResult r = env.Finish();
  EXPECT_EQ(r.SimulationFingerprint(), RunScenario(cfg).SimulationFingerprint());

  ASSERT_NE(r.Find("OL"), nullptr);
  EXPECT_GT(r.Find("OL")->ios, 0u);
  uint64_t arrivals = 0;
  uint64_t dropped = 0;
  uint64_t issued = 0;
  ASSERT_EQ(env.open_loop_jobs().size(), 2u);
  for (size_t i = 0; i < env.open_loop_jobs().size(); ++i) {
    OpenLoopJob& src = *env.open_loop_jobs()[i];
    EXPECT_EQ(src.tenant().id.value(), 4 + i);  // after the 3 FIO jobs
    arrivals += src.total_arrivals();
    dropped += src.dropped_arrivals();
    issued += src.total_issued();
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(r.MetricCount("workload.OL.dropped"), dropped);
  EXPECT_EQ(issued, arrivals - dropped);
  EXPECT_EQ(r.MetricCount("workload.OL.issued"), issued);
  // FIO groups get no dropped gauge, so FIO-only schemas stay unchanged.
  EXPECT_EQ(r.metrics.count("workload.L.dropped"), 0u);

  ASSERT_EQ(r.latency_series.count("OL"), 1u);
  EXPECT_GT(r.latency_series.at("OL").num_windows(), 1u);
  EXPECT_NE(r.slo.Find("ol0"), nullptr);
  EXPECT_NE(r.slo.Find("ol1"), nullptr);
}

TEST(ScenarioTest, AppTenantsTakeTheFirstIds) {
  // App tenants added before Start() take ids 1..k, and the config's jobs
  // and sources continue from k + 1. TenantNames() lists every tenant.
  ScenarioConfig cfg = TinyConfig(StackKind::kDareFull);
  AddLTenants(cfg, 1);
  AddTTenants(cfg, 2);
  OpenLoopSpec ol;
  ol.name = "ol0";
  cfg.open_loop.push_back(ol);
  ScenarioEnv env(cfg);
  Tenant& kv = env.AddAppTenant("kv", "APP", IoniceClass::kRealtime, 1);
  Tenant& mail = env.AddAppTenant("mail", "APP", IoniceClass::kBestEffort, 0);
  EXPECT_EQ(kv.id.value(), 1u);
  EXPECT_EQ(kv.group, "APP");
  EXPECT_EQ(kv.ionice, IoniceClass::kRealtime);
  EXPECT_EQ(kv.core, 1);
  EXPECT_EQ(mail.id.value(), 2u);
  env.Start();
  ASSERT_EQ(env.jobs().size(), 3u);
  for (size_t i = 0; i < env.jobs().size(); ++i) {
    EXPECT_EQ(env.jobs()[i]->tenant().id.value(), 3 + i) << "spec " << i;
  }
  ASSERT_EQ(env.open_loop_jobs().size(), 1u);
  EXPECT_EQ(env.open_loop_jobs()[0]->tenant().id.value(), 6u);
  const std::map<uint64_t, std::string> want = {
      {1, "kv"}, {2, "mail"}, {3, "L0"}, {4, "T1"}, {5, "T2"}, {6, "ol0"}};
  EXPECT_EQ(env.TenantNames(), want);
  // The env started each app tenant on the stack: Daredevil's troute holds
  // its state.
  const TRoute& troute = static_cast<DaredevilStack&>(env.stack()).troute();
  EXPECT_NE(troute.GetState(kv.id), nullptr);
  EXPECT_NE(troute.GetState(mail.id), nullptr);
}

// Two KV/YCSB app tenants beside 4 T jobs: the run's result JSON followed by
// each client's YCSB latency histograms.
std::string AppTenantRunBytes(uint64_t seed) {
  ScenarioConfig cfg = TinyConfig(StackKind::kDareFull);
  cfg.seed = seed;
  AddTTenants(cfg, 4);
  ScenarioEnv env(cfg);
  struct Client {
    std::unique_ptr<AppIoContext> io;
    std::unique_ptr<KvStore> store;
    std::unique_ptr<YcsbWorkload> ycsb;
  };
  std::vector<Client> clients(2);
  for (int i = 0; i < 2; ++i) {
    Tenant& t = env.AddAppTenant("kv" + std::to_string(i), "APP",
                                 IoniceClass::kRealtime, i);
    Client& c = clients[static_cast<size_t>(i)];
    c.io = std::make_unique<AppIoContext>(&env.machine(), &env.stack(), &t,
                                          /*nsid=*/0);
    c.store = std::make_unique<KvStore>(c.io.get(), KvStoreConfig{},
                                        env.shard().rng().Fork());
    c.store->Load(2000);
    YcsbConfig ycsb_cfg;
    ycsb_cfg.workload = 'A';
    ycsb_cfg.record_count = 2000;
    c.ycsb = std::make_unique<YcsbWorkload>(
        c.store.get(), ycsb_cfg, env.shard().rng().Fork(), &env.sim(),
        env.measure_start(), env.measure_end());
    c.ycsb->Start();
  }
  env.Start();
  env.sim().RunUntil(env.measure_end());
  std::string bytes = env.Finish().ToJson();
  for (const Client& c : clients) {
    EXPECT_GT(c.ycsb->OpCount(YcsbOp::kUpdate), 0u);
    for (YcsbOp op : {YcsbOp::kRead, YcsbOp::kUpdate}) {
      JsonWriter w;
      AppendHistogramJson(w, c.ycsb->OpLatency(op));
      bytes += w.str();
    }
  }
  return bytes;
}

TEST(ScenarioTest, AppTenantRunsFollowTheConfigSeed) {
  const std::string a = AppTenantRunBytes(5);
  EXPECT_EQ(a, AppTenantRunBytes(5));
  EXPECT_NE(a, AppTenantRunBytes(6));
}

TEST(ScenarioTest, MakeConfigsMatchPaperSetups) {
  const ScenarioConfig svm = MakeSvmConfig(4);
  EXPECT_EQ(svm.machine.num_cores, 4);
  EXPECT_EQ(svm.device.nr_nsq, 64);
  EXPECT_EQ(svm.device.nr_ncq, 64);
  const ScenarioConfig wsm = MakeWsmConfig(8);
  EXPECT_EQ(wsm.device.nr_nsq, 128);
  EXPECT_EQ(wsm.device.nr_ncq, 24);
}

TEST(ScenarioTest, TenantSpecShapesMatchPaper) {
  const FioJobSpec l = LTenantSpec(0);
  EXPECT_EQ(l.pages, 1u);  // 4KB
  EXPECT_EQ(l.iodepth, 1);
  EXPECT_EQ(l.ionice, IoniceClass::kRealtime);
  EXPECT_FALSE(l.is_write);
  EXPECT_TRUE(l.random);
  const FioJobSpec t = TTenantSpec(0);
  EXPECT_EQ(t.pages, 32u);  // 128KB
  EXPECT_EQ(t.iodepth, 32);
  EXPECT_EQ(t.ionice, IoniceClass::kBestEffort);
}

TEST(ScenarioTest, StackKindNamesStable) {
  EXPECT_EQ(StackKindName(StackKind::kVanilla), "vanilla");
  EXPECT_EQ(StackKindName(StackKind::kStaticSplit), "static-split");
  EXPECT_EQ(StackKindName(StackKind::kBlkSwitch), "blk-switch");
  EXPECT_EQ(StackKindName(StackKind::kDareBase), "dare-base");
  EXPECT_EQ(StackKindName(StackKind::kDareSched), "dare-sched");
  EXPECT_EQ(StackKindName(StackKind::kDareFull), "daredevil");
}

}  // namespace
}  // namespace daredevil
