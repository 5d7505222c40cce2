// Tests for the observability substrate: JsonWriter, StageBreakdown,
// MetricsRegistry, the stage timeline stamped onto every request, and the
// machine-readable ScenarioResult serialization.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/stats/metrics.h"
#include "src/stats/trace_export.h"
#include "src/workload/scenario.h"

namespace daredevil {
namespace {

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

TEST(JsonWriterTest, ObjectsArraysAndEscaping) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String("a \"quoted\"\n\tvalue\\");
  w.Key("n").Int(-42);
  w.Key("u").UInt(18446744073709551615ull);
  w.Key("x").Double(1.5);
  w.Key("flag").Bool(true);
  w.Key("list").BeginArray();
  w.Int(1);
  w.Int(2);
  w.BeginObject();
  w.Key("nested").Bool(false);
  w.EndObject();
  w.EndArray();
  w.Key("raw").Raw("{\"pre\":1}");
  w.EndObject();

  EXPECT_TRUE(JsonLooksValid(w.str())) << w.str();
  EXPECT_NE(w.str().find("\"n\":-42"), std::string::npos);
  EXPECT_NE(w.str().find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(w.str().find("\\n"), std::string::npos);
  EXPECT_NE(w.str().find("[1,2,{\"nested\":false}]"), std::string::npos);
}

TEST(JsonWriterTest, ExactEscapesAndIntegerDigits) {
  // Byte-exact output: every control character becomes its escape (short
  // forms for \n \t \r, \u00xx otherwise), plain runs pass through, and
  // integers keep printf's digits at both ends of their range.
  JsonWriter w;
  w.BeginArray();
  w.String(std::string("a\"b\\c\nd\te\rf\x01\x08\x0b\x1f\x7f\xc3\xa9", 18));
  w.Int(std::numeric_limits<int64_t>::min());
  w.Int(0);
  w.UInt(std::numeric_limits<uint64_t>::max());
  w.EndArray();
  EXPECT_EQ(w.str(),
            "[\"a\\\"b\\\\c\\nd\\te\\rf\\u0001\\u0008\\u000b\\u001f\x7f\xc3\xa9\","
            "-9223372036854775808,0,18446744073709551615]");
  EXPECT_TRUE(JsonLooksValid(w.str())) << w.str();
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginObject();
  w.Key("inf").Double(std::numeric_limits<double>::infinity());
  w.Key("nan").Double(std::numeric_limits<double>::quiet_NaN());
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"inf\":null,\"nan\":null}");
  EXPECT_TRUE(JsonLooksValid(w.str()));
}

TEST(JsonWriterTest, HistogramJsonIsValid) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Record(i * 100);
  }
  const std::string json = HistogramToJson(h);
  EXPECT_TRUE(JsonLooksValid(json)) << json;
  EXPECT_NE(json.find("\"count\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// StageBreakdown
// ---------------------------------------------------------------------------

Request TimelineRequest() {
  Request rq;
  rq.t.issue = 100;
  rq.t.submit = 110;
  rq.t.nsq_enqueue = 120;
  rq.t.doorbell = 130;
  rq.t.fetch_start = 140;
  rq.t.fetch = 150;
  rq.t.flash_start = 160;
  rq.t.flash_end = 200;
  rq.t.cqe_post = 210;
  rq.t.drain = 220;
  rq.t.complete = 230;
  return rq;
}

TEST(StageBreakdownTest, StagesTelescopeToEndToEnd) {
  StageBreakdown b;
  const Request rq = TimelineRequest();
  b.Record(rq);
  ASSERT_EQ(b.count(), 1u);
  EXPECT_EQ(b.stage(Stage::kSubmit).Mean(), 20.0);           // 100 -> 120
  EXPECT_EQ(b.stage(Stage::kNsqWait).Mean(), 20.0);          // 120 -> 140
  EXPECT_EQ(b.stage(Stage::kFetch).Mean(), 10.0);            // 140 -> 150
  EXPECT_EQ(b.stage(Stage::kFlash).Mean(), 50.0);            // 150 -> 200
  EXPECT_EQ(b.stage(Stage::kCompletionWait).Mean(), 20.0);   // 200 -> 220
  EXPECT_EQ(b.stage(Stage::kDelivery).Mean(), 10.0);         // 220 -> 230
  EXPECT_DOUBLE_EQ(b.TotalMeanNs(),
                   static_cast<double>(rq.t.complete - rq.t.issue));
}

TEST(StageBreakdownTest, SkipsRequestsWithoutDeviceTimeline) {
  StageBreakdown b;
  Request parent;  // e.g. a split parent: completes via children, no device
  parent.t.issue = 100;
  parent.t.complete = 500;
  b.Record(parent);
  EXPECT_EQ(b.count(), 0u);
}

TEST(StageBreakdownTest, MergeAndReset) {
  StageBreakdown a;
  StageBreakdown b;
  a.Record(TimelineRequest());
  b.Record(TimelineRequest());
  b.Record(TimelineRequest());
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  a.Reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.TotalMeanNs(), 0.0);
}

TEST(StageBreakdownTest, JsonHasAllStages) {
  StageBreakdown b;
  b.Record(TimelineRequest());
  JsonWriter w;
  b.AppendJson(w);
  EXPECT_TRUE(JsonLooksValid(w.str())) << w.str();
  for (int s = 0; s < kNumStages; ++s) {
    const std::string key =
        std::string("\"") + StageName(static_cast<Stage>(s)) + "\"";
    EXPECT_NE(w.str().find(key), std::string::npos) << key;
  }
}

TEST(StageBreakdownTest, ResetTimelineClearsEverything) {
  Request rq = TimelineRequest();
  ASSERT_TRUE(rq.t.HasDeviceStamps());
  rq.ResetTimeline();
  EXPECT_FALSE(rq.t.HasDeviceStamps());
  EXPECT_EQ(rq.t.issue, 0);
  EXPECT_EQ(rq.t.doorbell, 0);
  EXPECT_EQ(rq.t.flash_end, 0);
  EXPECT_EQ(rq.t.complete, 0);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, CounterCellsAreSharedAndStable) {
  MetricsRegistry reg;
  uint64_t* a = reg.Counter("layer.things");
  uint64_t* b = reg.Counter("layer.things");
  EXPECT_EQ(a, b);
  *a += 3;
  *b += 4;
  // Creating more counters must not invalidate earlier cells.
  for (int i = 0; i < 100; ++i) {
    reg.Counter("layer.other" + std::to_string(i));
  }
  *a += 1;
  EXPECT_EQ(reg.Value("layer.things"), 8.0);
}

TEST(MetricsRegistryTest, GaugesEvaluateAtSnapshotTime) {
  MetricsRegistry reg;
  double current = 1.0;
  reg.RegisterGauge("g", [&current]() { return current; });
  EXPECT_EQ(reg.Value("g"), 1.0);
  current = 7.5;
  EXPECT_EQ(reg.Value("g"), 7.5);
  const auto snap = reg.Snapshot();
  EXPECT_EQ(snap.at("g"), 7.5);
}

TEST(MetricsRegistryTest, UnknownNamesReadZero) {
  MetricsRegistry reg;
  EXPECT_FALSE(reg.Has("nope"));
  EXPECT_EQ(reg.Value("nope"), 0.0);
}

TEST(MetricsRegistryTest, ToJsonIsValid) {
  MetricsRegistry reg;
  *reg.Counter("c") = 5;
  reg.RegisterGauge("g", []() { return 2.5; });
  reg.Hist("h")->Record(1000);
  const std::string json = reg.ToJson();
  EXPECT_TRUE(JsonLooksValid(json)) << json;
  EXPECT_NE(json.find("\"c\":5"), std::string::npos);
  EXPECT_NE(json.find("\"g\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"h\":{"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ScenarioResult helpers must not crash on missing groups.
// ---------------------------------------------------------------------------

TEST(ScenarioResultTest, MissingGroupIsSafe) {
  ScenarioResult r;
  EXPECT_EQ(r.Find("nope"), nullptr);
  EXPECT_EQ(r.AvgLatencyNs("nope"), 0.0);
  EXPECT_EQ(r.P99Ns("nope"), 0);
  EXPECT_EQ(r.P999Ns("nope"), 0);
  EXPECT_EQ(r.Iops("nope"), 0.0);
  EXPECT_EQ(r.ThroughputBps("nope"), 0.0);
  EXPECT_EQ(r.Metric("nope"), 0.0);
  EXPECT_TRUE(JsonLooksValid(r.ToJson())) << r.ToJson();
}

TEST(ScenarioResultTest, ZeroDurationIsSafe) {
  ScenarioResult r;
  r.groups["G"].ios = 10;
  r.groups["G"].bytes = 4096;
  EXPECT_EQ(r.Iops("G"), 0.0);  // measure_duration == 0
  EXPECT_EQ(r.ThroughputBps("G"), 0.0);
  EXPECT_TRUE(JsonLooksValid(r.ToJson())) << r.ToJson();
}

// ---------------------------------------------------------------------------
// End-to-end: the scenario runner populates stage breakdowns, the metrics
// snapshot, and a valid JSON document, and the per-group stage sums match
// the end-to-end latency within 1%.
// ---------------------------------------------------------------------------

class ScenarioTelemetry : public ::testing::TestWithParam<StackKind> {};

TEST_P(ScenarioTelemetry, StageSumsMatchEndToEndLatency) {
  ScenarioConfig cfg = MakeSvmConfig(/*cores=*/4);
  cfg.stack = GetParam();
  cfg.warmup = 2 * kMillisecond;
  cfg.duration = 30 * kMillisecond;
  AddLTenants(cfg, 2);
  AddTTenants(cfg, 4);
  const ScenarioResult r = RunScenario(cfg);

  for (const auto& [name, g] : r.groups) {
    ASSERT_GT(g.latency.count(), 0u) << name;
    // Every completed request carried a full device timeline (no splitting
    // in this config), so the breakdown saw the same population...
    EXPECT_EQ(g.stages.count(), g.latency.count()) << name;
    // ...and the telescoping stage means must reproduce the e2e mean. The
    // only error source is histogram summation order, far below 1%.
    EXPECT_NEAR(g.stages.TotalMeanNs() / g.latency.Mean(), 1.0, 0.01) << name;
  }

  // The registry snapshot made it into the result and agrees with the jobs.
  EXPECT_GT(r.Metric("stack.requests_completed"), 0.0);
  EXPECT_GT(r.Metric("device.commands_fetched"), 0.0);
  EXPECT_GT(r.Metric("machine.total_busy_ns"), 0.0);
  EXPECT_EQ(r.Metric("workload.L.issued") + r.Metric("workload.T.issued"),
            static_cast<double>(r.total_issued));

  EXPECT_TRUE(JsonLooksValid(r.ToJson()));
}

INSTANTIATE_TEST_SUITE_P(AllStacks, ScenarioTelemetry,
                         ::testing::Values(StackKind::kVanilla,
                                           StackKind::kStaticSplit,
                                           StackKind::kBlkSwitch,
                                           StackKind::kDareBase,
                                           StackKind::kDareFull),
                         [](const ::testing::TestParamInfo<StackKind>& info) {
                           std::string name(StackKindName(info.param));
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// Property: the stamped stage timeline of every completed request is
// monotonic (stage boundaries in lifecycle order). Checked via direct
// submission so each request object is inspectable at completion.
TEST_P(ScenarioTelemetry, TimelineIsMonotonicPerRequest) {
  ScenarioConfig cfg = MakeSvmConfig(/*cores=*/2);
  cfg.stack = GetParam();
  ScenarioEnv env(cfg);

  Tenant& tenant =
      env.AddAppTenant("probe", "P", IoniceClass::kRealtime, /*core=*/0);

  Rng rng(7);
  std::vector<std::unique_ptr<Request>> requests;
  int completed = 0;
  constexpr int kRequests = 200;
  for (int i = 0; i < kRequests; ++i) {
    auto rq = std::make_unique<Request>();
    rq->id = static_cast<uint64_t>(i + 1);
    rq->tenant = &tenant;
    rq->nsid = 0;
    rq->lba = Lba{rng.NextBelow(1 << 16)};
    rq->pages = 1 + static_cast<uint32_t>(rng.NextBelow(32));
    rq->is_write = rng.NextBelow(2) == 0;
    rq->submit_core = 0;
    rq->t.issue = env.sim().now();
    rq->on_complete = [&completed](Request* r) {
      ++completed;
      EXPECT_LE(r->t.issue, r->t.submit);
      EXPECT_LE(r->t.submit, r->t.nsq_enqueue);
      EXPECT_LE(r->t.nsq_enqueue, r->t.doorbell);
      EXPECT_LE(r->t.doorbell, r->t.fetch_start);
      EXPECT_LE(r->t.fetch_start, r->t.fetch);
      EXPECT_LE(r->t.fetch, r->t.flash_start);
      EXPECT_LE(r->t.flash_start, r->t.flash_end);
      EXPECT_LE(r->t.flash_end, r->t.cqe_post);
      EXPECT_LE(r->t.cqe_post, r->t.drain);
      EXPECT_LE(r->t.drain, r->t.complete);
      // The telescoping stage sum reproduces the e2e latency exactly.
      const Tick sum = (r->t.nsq_enqueue - r->t.issue) +
                       (r->t.fetch_start - r->t.nsq_enqueue) +
                       (r->t.fetch - r->t.fetch_start) +
                       (r->t.flash_end - r->t.fetch) +
                       (r->t.drain - r->t.flash_end) +
                       (r->t.complete - r->t.drain);
      EXPECT_EQ(sum, r->t.complete - r->t.issue);
    };
    requests.push_back(std::move(rq));
  }
  // Issue in staggered waves so queues actually back up.
  for (int i = 0; i < kRequests; ++i) {
    Request* rq = requests[static_cast<size_t>(i)].get();
    env.sim().At(static_cast<Tick>(i / 8) * 2 * kMicrosecond, [&env, rq]() {
      rq->t.issue = env.sim().now();
      env.stack().SubmitAsync(rq);
    });
  }
  // Bounded run: the dare stacks keep periodic timers alive, so the sim
  // never goes idle. One second of simulated time dwarfs the workload.
  env.sim().RunUntil(kSecond);
  EXPECT_EQ(completed, kRequests);
}

// ---------------------------------------------------------------------------
// The paper's diagnosis, reproduced by the telemetry itself: under SV-M
// mixed tenancy, vanilla blk-mq's L-tenant latency is dominated by NSQ
// head-of-line wait plus completion-side batching - not flash service.
// ---------------------------------------------------------------------------

TEST(StageAttribution, VanillaSvmLatencyIsQueueingNotFlash) {
  ScenarioConfig cfg = MakeSvmConfig(/*cores=*/4);
  cfg.stack = StackKind::kVanilla;
  cfg.warmup = 10 * kMillisecond;
  cfg.duration = 60 * kMillisecond;
  AddLTenants(cfg, 4);
  AddTTenants(cfg, 16);
  const ScenarioResult r = RunScenario(cfg);

  const GroupStats* l = r.Find("L");
  ASSERT_NE(l, nullptr);
  ASSERT_GT(l->stages.count(), 0u);
  const double total = l->stages.TotalMeanNs();
  const double queueing = l->stages.stage(Stage::kNsqWait).Mean() +
                          l->stages.stage(Stage::kCompletionWait).Mean();
  const double flash = l->stages.stage(Stage::kFlash).Mean();
  // The majority of L-tenant latency is attributable to shared-queue
  // head-of-line wait + completion batching...
  EXPECT_GT(queueing, 0.5 * total)
      << "nsq_wait=" << l->stages.stage(Stage::kNsqWait).Mean()
      << " completion_wait=" << l->stages.stage(Stage::kCompletionWait).Mean()
      << " total=" << total;
  // ...and dwarfs the actual flash service time.
  EXPECT_GT(queueing, flash);
}

// Control for the attribution test: with no T-pressure the same telemetry
// shows flash service dominating and queueing small, so the breakdown is
// diagnosing interference, not a fixed property of the pipeline.
TEST(StageAttribution, UncontendedLatencyIsFlashDominated) {
  ScenarioConfig cfg = MakeSvmConfig(/*cores=*/4);
  cfg.stack = StackKind::kVanilla;
  cfg.warmup = 10 * kMillisecond;
  cfg.duration = 60 * kMillisecond;
  AddLTenants(cfg, 4);
  const ScenarioResult r = RunScenario(cfg);

  const GroupStats* l = r.Find("L");
  ASSERT_NE(l, nullptr);
  ASSERT_GT(l->stages.count(), 0u);
  const double total = l->stages.TotalMeanNs();
  const double queueing = l->stages.stage(Stage::kNsqWait).Mean() +
                          l->stages.stage(Stage::kCompletionWait).Mean();
  EXPECT_LT(queueing, 0.5 * total);
  EXPECT_GT(l->stages.stage(Stage::kFlash).Mean(), queueing);
}

}  // namespace
}  // namespace daredevil
