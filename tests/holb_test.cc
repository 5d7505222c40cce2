// HOL-blocking attribution: the analyzer must charge a victim's NSQ wait to
// the exact head-occupancy and fetch-slot intervals of the requests ahead of
// it, and the scenario-level rollups must reproduce the paper's shape (bulk
// commands dominate L-request blocking on blk-mq, not on Daredevil).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/stats/holb.h"
#include "src/workload/scenario.h"

namespace daredevil {
namespace {

RequestRecord MakeRecord(uint64_t id, uint64_t tenant, int nsq, Tick enqueue,
                         Tick fetch_start, Tick fetch, uint32_t pages,
                         bool latency_sensitive) {
  RequestRecord r;
  r.id = id;
  r.tenant_id = tenant;
  r.pages = pages;
  r.latency_sensitive = latency_sensitive;
  r.nsq = nsq;
  r.ncq = nsq;
  r.t.nsq_enqueue = enqueue;
  r.t.doorbell = enqueue;  // visible immediately (no doorbell batching)
  r.t.fetch_start = fetch_start;
  r.t.fetch = fetch;
  r.t.flash_start = fetch;
  r.t.flash_end = fetch + 50;
  r.t.cqe_post = fetch + 60;
  r.t.drain = fetch + 70;
  r.t.complete = fetch + 80;
  return r;
}

// The worked example from the design docs: a 128KB bulk command enqueued at
// t=100 holds the NSQ head over [100, 200) and the serialized fetch engine
// over [200, 400); a 4KB L-read enqueued at t=150 in the same NSQ cannot
// start fetching until t=400. Its 250ns wait decomposes exactly into 50ns of
// head blocking (while the bulk sat at the head) plus 200ns of fetch-slot
// blocking (while the bulk occupied the engine).
TEST(HolbTest, AttributesExactBlockingDurations) {
  const std::vector<RequestRecord> records = {
      MakeRecord(/*id=*/1, /*tenant=*/9, /*nsq=*/0, /*enqueue=*/100,
                 /*fetch_start=*/200, /*fetch=*/400, /*pages=*/32,
                 /*latency_sensitive=*/false),
      MakeRecord(/*id=*/2, /*tenant=*/1, /*nsq=*/0, /*enqueue=*/150,
                 /*fetch_start=*/400, /*fetch=*/410, /*pages=*/1,
                 /*latency_sensitive=*/true),
  };
  const HolbReport report = AnalyzeHolBlocking(records);

  EXPECT_EQ(report.victims, 1u);
  EXPECT_EQ(report.total_wait_ns, 250);
  EXPECT_EQ(report.attributed_head_ns, 50);
  EXPECT_EQ(report.attributed_fetch_ns, 200);
  EXPECT_EQ(report.residual_ns, 0);

  // All of it lands on the one bulk blocker, in both rollups.
  ASSERT_EQ(report.by_size.size(), 1u);
  EXPECT_EQ(report.by_size[0].key, "bulk(>=32p)");
  EXPECT_EQ(report.by_size[0].head_block_ns, 50);
  EXPECT_EQ(report.by_size[0].fetch_slot_ns, 200);
  EXPECT_EQ(report.BulkHeadBlockNs(), 50);
  EXPECT_EQ(report.SmallHeadBlockNs(), 0);
  ASSERT_EQ(report.by_tenant.size(), 1u);
  EXPECT_EQ(report.by_tenant[0].blocking_events, 2u);  // head + fetch-slot
  EXPECT_EQ(report.by_tenant[0].total_ns(), 250);
}

TEST(HolbTest, BlockersInOtherNsqsOnlyChargeTheFetchSlot) {
  // The bulk command sits in NSQ 1; the victim in NSQ 0 reaches its own head
  // immediately, so nothing is head-blocked - but the serialized fetch
  // engine still makes it wait the full [200, 400) bulk fetch.
  const std::vector<RequestRecord> records = {
      MakeRecord(1, 9, /*nsq=*/1, 100, 200, 400, 32, false),
      MakeRecord(2, 1, /*nsq=*/0, 150, 400, 410, 1, true),
  };
  const HolbReport report = AnalyzeHolBlocking(records);
  EXPECT_EQ(report.victims, 1u);
  EXPECT_EQ(report.attributed_head_ns, 0);
  EXPECT_EQ(report.attributed_fetch_ns, 200);
  // [150, 200) before the bulk fetch started is unattributed.
  EXPECT_EQ(report.residual_ns, 50);
}

TEST(HolbTest, VictimFilterAndEmptyInput) {
  EXPECT_TRUE(AnalyzeHolBlocking({}).empty());

  // A best-effort victim is ignored by default but counted when the filter
  // is relaxed.
  const std::vector<RequestRecord> records = {
      MakeRecord(1, 9, 0, 100, 200, 400, 32, false),
      MakeRecord(2, 1, 0, 150, 400, 410, 1, /*latency_sensitive=*/false),
  };
  EXPECT_TRUE(AnalyzeHolBlocking(records).empty());

  HolbOptions opts;
  opts.victims_latency_sensitive_only = false;
  const HolbReport report = AnalyzeHolBlocking(records, opts);
  EXPECT_EQ(report.victims, 2u);  // the bulk itself is a (zero-wait) victim
  EXPECT_EQ(report.total_wait_ns, 350);  // bulk 100 + small 250
}

TEST(HolbTest, TenantNamesAndTableRender) {
  const std::vector<RequestRecord> records = {
      MakeRecord(1, 9, 0, 100, 200, 400, 32, false),
      MakeRecord(2, 1, 0, 150, 400, 410, 1, true),
  };
  HolbOptions opts;
  opts.tenant_names[9] = "T-bulk";
  const HolbReport report = AnalyzeHolBlocking(records, opts);
  ASSERT_EQ(report.by_tenant.size(), 1u);
  EXPECT_EQ(report.by_tenant[0].key, "T-bulk");
  const std::string table = report.ToTable();
  EXPECT_NE(table.find("T-bulk"), std::string::npos);
  EXPECT_NE(table.find("bulk(>=32p)"), std::string::npos);
}

TEST(HolbTest, RankingsShareRowsByNameAndKeepTopN) {
  // One victim behind five same-NSQ heads of five tenants. Tenants 2 and 4
  // share the display name "T-a", so they share one row; tenant 6 has no
  // name. Head intervals: [100,200) [200,400) [400,450) [450,800)
  // [800,900), then the victim's own head [900,1000), during which the
  // fetch engine still serves tenant 6's command over [900,910).
  std::vector<RequestRecord> records;
  const uint64_t tenants[] = {2, 3, 4, 5, 6};
  const Tick fetch_starts[] = {200, 400, 450, 800, 900};
  for (int i = 0; i < 5; ++i) {
    records.push_back(MakeRecord(/*id=*/i + 1, tenants[i], /*nsq=*/0,
                                 /*enqueue=*/90 + i, fetch_starts[i],
                                 fetch_starts[i] + 10, /*pages=*/1, false));
  }
  records.push_back(MakeRecord(10, 1, 0, 100, 1000, 1010, 1, true));
  HolbOptions opts;
  opts.tenant_names = {{2, "T-a"}, {3, "T-b"}, {4, "T-a"}, {5, "T-c"}};

  const HolbReport all = AnalyzeHolBlocking(records, opts);
  EXPECT_EQ(all.total_wait_ns, 900);
  EXPECT_EQ(all.attributed_head_ns, 800);
  EXPECT_EQ(all.attributed_fetch_ns, 10);
  EXPECT_EQ(all.residual_ns, 90);
  ASSERT_EQ(all.by_tenant.size(), 4u);
  EXPECT_EQ(all.by_tenant[0].key, "T-c");
  EXPECT_EQ(all.by_tenant[0].total_ns(), 350);
  EXPECT_EQ(all.by_tenant[1].key, "T-b");
  EXPECT_EQ(all.by_tenant[1].total_ns(), 200);
  EXPECT_EQ(all.by_tenant[2].key, "T-a");
  EXPECT_EQ(all.by_tenant[2].blocking_events, 2u);
  EXPECT_EQ(all.by_tenant[2].head_block_ns, 150);
  EXPECT_EQ(all.by_tenant[3].key, "tenant6");
  EXPECT_EQ(all.by_tenant[3].head_block_ns, 100);
  EXPECT_EQ(all.by_tenant[3].fetch_slot_ns, 10);

  opts.top_n = 2;
  const HolbReport top = AnalyzeHolBlocking(records, opts);
  ASSERT_EQ(top.by_tenant.size(), 2u);
  EXPECT_EQ(top.by_tenant[0].key, "T-c");
  EXPECT_EQ(top.by_tenant[1].key, "T-b");
  EXPECT_EQ(top.attributed_head_ns, 800);  // the cut trims rows, not totals
}

// The fig02 acceptance shape at test scale: with bulk T-tenants sharing the
// L-tenants' queues (vanilla blk-mq), bulk commands dominate the L-requests'
// NSQ-head blocking; Daredevil's NQ groups keep bulk commands off the
// L-queues entirely, so the bulk share collapses.
TEST(HolbTest, BulkShareCollapsesUnderDaredevil) {
  auto bulk_share = [](StackKind kind) {
    ScenarioConfig cfg = MakeSvmConfig(4);
    cfg.stack = kind;
    cfg.used_nqs = 4;
    cfg.warmup = 2 * kMillisecond;
    cfg.duration = 30 * kMillisecond;
    cfg.export_trace = true;
    AddLTenants(cfg, 4);
    AddTTenants(cfg, 8);
    const ScenarioResult r = RunScenario(cfg);
    const double head = static_cast<double>(r.holb.attributed_head_ns);
    return head > 0 ? static_cast<double>(r.holb.BulkHeadBlockNs()) / head
                    : 0.0;
  };
  const double vanilla = bulk_share(StackKind::kVanilla);
  const double daredevil = bulk_share(StackKind::kDareFull);
  EXPECT_GT(vanilla, 0.5) << "bulk commands should dominate on blk-mq";
  EXPECT_LT(daredevil, vanilla)
      << "NQ groups should shrink the bulk share of L-request blocking";
}

}  // namespace
}  // namespace daredevil
