// Edge-case coverage across modules: arbitration bursts, queue weights,
// scenario-level splitting, cache warm-up, multi-NSQ-per-NCQ heaps, and CPU
// accounting corners.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "src/apps/kvstore.h"
#include "src/blkmq/blkmq_stack.h"
#include "src/core/daredevil_stack.h"
#include "src/workload/scenario.h"

namespace daredevil {
namespace {

TEST(ArbiterBurst, ConsecutiveFetchesFromSameQueue) {
  Simulator sim;
  DeviceConfig config;
  config.nr_nsq = 2;
  config.nr_ncq = 2;
  config.arb_burst = 3;
  config.max_inflight_pages = 1;  // strict serialization of fetches
  config.namespace_pages = {1 << 16};
  config.flash.erase_after_programs = 0;
  Device device(&sim, config);
  std::vector<uint64_t> order;
  device.SetIrqHandler([&](int ncq) {
    for (const auto& cqe : device.DrainCompletions(ncq, 16)) {
      order.push_back(cqe.cid);
    }
    device.IrqDone(ncq);
  });
  for (uint64_t i = 0; i < 6; ++i) {
    NvmeCommand cmd;
    cmd.cid = 100 + i;
    cmd.lba = Lba{i};
    ASSERT_TRUE(device.Enqueue(0, cmd));
    cmd.cid = 200 + i;
    ASSERT_TRUE(device.Enqueue(1, cmd));
  }
  device.RingDoorbell(0);
  device.RingDoorbell(1);
  sim.RunUntilIdle();
  ASSERT_EQ(order.size(), 12u);
  // Burst of 3: the first three completions all come from queue 0.
  EXPECT_LT(order[0], 200u);
  EXPECT_LT(order[1], 200u);
  EXPECT_LT(order[2], 200u);
  EXPECT_GE(order[3], 200u);
}

TEST(SubmissionQueueWeight, ClampsToAtLeastOne) {
  SubmissionQueue sq(QueueId{0}, 8);
  EXPECT_EQ(sq.weight(), 1);
  sq.set_weight(0);
  EXPECT_EQ(sq.weight(), 1);
  sq.set_weight(-3);
  EXPECT_EQ(sq.weight(), 1);
  sq.set_weight(7);
  EXPECT_EQ(sq.weight(), 7);
}

TEST(CpuCoreQueues, TotalQueueDepthCounts) {
  Simulator sim;
  CpuCore core(&sim, CoreId{0}, kZeroDuration);
  core.Post(WorkLevel::kUser, TickDuration{1000},
            nullptr);  // starts running immediately
  core.Post(WorkLevel::kUser, TickDuration{10}, nullptr);   // queued
  core.Post(WorkLevel::kIrq, TickDuration{10}, nullptr);    // queued
  EXPECT_EQ(core.TotalQueueDepth(), 2u);
  EXPECT_EQ(core.QueueDepth(WorkLevel::kIrq), 1u);
  EXPECT_TRUE(core.busy());
  sim.RunUntilIdle();
  EXPECT_EQ(core.TotalQueueDepth(), 0u);
  EXPECT_FALSE(core.busy());
  EXPECT_EQ(core.items_executed(), 3u);
}

TEST(ScenarioSplit, ConfigEnablesSplitting) {
  ScenarioConfig cfg = MakeSvmConfig(2);
  cfg.device.nr_nsq = 8;
  cfg.device.nr_ncq = 8;
  cfg.split_pages = 8;
  cfg.warmup = 2 * kMillisecond;
  cfg.duration = 20 * kMillisecond;
  AddTTenants(cfg, 2);  // 32-page requests get split into 4 chunks
  const ScenarioResult r = RunScenario(cfg);
  EXPECT_GT(r.total_completed, 0u);
  // Commands completed by the device exceed parent requests (4 chunks each).
  EXPECT_GE(r.commands_completed(), 3 * r.total_completed);
}

TEST(KvStoreWarmCache, HotKeysServedWithoutIo) {
  Simulator sim;
  Machine machine(&sim, Machine::Config{.num_cores = 2});
  DeviceConfig device_config;
  device_config.nr_nsq = 4;
  device_config.nr_ncq = 4;
  device_config.namespace_pages = {1 << 18};
  device_config.flash.erase_after_programs = 0;
  Device device(&sim, device_config);
  BlkMqStack stack(&machine, &device, StackCosts{});
  Tenant tenant;
  tenant.id = TenantId{1};
  stack.OnTenantStart(&tenant);
  AppIoContext io(&machine, &stack, &tenant, 0);
  KvStoreConfig config;
  config.bloom_fp = 0.0;
  KvStore store(&io, config, Rng(1));
  store.Load(10000);
  store.WarmCache(1000);
  int done = 0;
  for (uint64_t key = 0; key < 100; ++key) {
    store.Get(key, [&]() { ++done; });
    sim.RunUntilIdle();
  }
  EXPECT_EQ(done, 100);
  EXPECT_EQ(io.reads_issued(), 0u);  // every hot key cache-resident
}

TEST(NqRegMultiNsqHeap, SecondLevelSchedulesAcrossAttachedNsqs) {
  // WS-M-like shape: 20 NSQs over 4 NCQs -> 5 NSQs per NCQ; the second-level
  // heap must rotate across a chosen NCQ's leaves.
  Simulator sim;
  Machine machine(&sim, Machine::Config{.num_cores = 4});
  DeviceConfig config;
  config.nr_nsq = 20;
  config.nr_ncq = 4;
  Device device(&sim, config);
  Blex blex(&device, 4);
  NqReg nqreg(&blex, DareFullConfig());
  std::set<int> nsqs;
  for (int i = 0; i < 10; ++i) {
    const int nsq = nqreg.Schedule(NqPrio::kHigh, nqreg.mru_budget());
    EXPECT_EQ(nqreg.GroupOfNsq(nsq), NqPrio::kHigh);
    nsqs.insert(nsq);
  }
  // High group: NCQs {0,1} with 5 NSQs each = 10 leaves; rotation should
  // reach well beyond 2 distinct NSQs.
  EXPECT_GE(nsqs.size(), 4u);
}

TEST(RequestFlags, OutlierDefinition) {
  Request rq;
  EXPECT_FALSE(rq.IsOutlier());
  rq.is_sync = true;
  EXPECT_TRUE(rq.IsOutlier());
  rq.is_sync = false;
  rq.is_meta = true;
  EXPECT_TRUE(rq.IsOutlier());
  rq.pages = 3;
  EXPECT_EQ(rq.bytes(), 3u * 4096u);
}

TEST(IoniceNames, Stable) {
  EXPECT_STREQ(IoniceName(IoniceClass::kRealtime), "realtime");
  EXPECT_STREQ(IoniceName(IoniceClass::kBestEffort), "best-effort");
  EXPECT_STREQ(IoniceName(IoniceClass::kIdle), "idle");
}

TEST(DeviceAsserts, NamespacePagesAccessors) {
  Simulator sim;
  DeviceConfig config;
  config.nr_nsq = 2;
  config.nr_ncq = 2;
  config.namespace_pages = {100, 200, 300};
  Device device(&sim, config);
  EXPECT_EQ(device.num_namespaces(), 3);
  EXPECT_EQ(device.NamespaceBasePage(2), 300u);
  EXPECT_EQ(device.NamespacePages(2), 300u);
}

TEST(StaticSplitEdge, TwoQueueMinimum) {
  // used_nqs=1 would make a split impossible; the stack enforces >= 2.
  Simulator sim;
  Machine machine(&sim, Machine::Config{.num_cores = 1});
  DeviceConfig config;
  config.nr_nsq = 4;
  config.nr_ncq = 4;
  Device device(&sim, config);
  StaticSplitStack stack(&machine, &device, StackCosts{}, /*used_nqs=*/1);
  EXPECT_GE(stack.nr_hw_queues(), 2);
  EXPECT_EQ(stack.half(), stack.nr_hw_queues() / 2);
}

TEST(BlkSwitchConfigDefaults, MatchDocumentedValues) {
  const BlkSwitchConfig config;
  EXPECT_EQ(config.resched_interval, TickDuration{2 * kMillisecond});
  EXPECT_EQ(config.max_t_apps_per_core, 6);
  EXPECT_EQ(config.spill_bytes, 16ULL << 20);
}

TEST(DaredevilConfigPresets, AblationFlags) {
  EXPECT_FALSE(DareBaseConfig().enable_nq_scheduling);
  EXPECT_FALSE(DareBaseConfig().enable_sla_dispatch);
  EXPECT_TRUE(DareSchedConfig().enable_nq_scheduling);
  EXPECT_FALSE(DareSchedConfig().enable_sla_dispatch);
  EXPECT_TRUE(DareFullConfig().enable_nq_scheduling);
  EXPECT_TRUE(DareFullConfig().enable_sla_dispatch);
  EXPECT_DOUBLE_EQ(DareFullConfig().alpha, 0.8);  // the paper's setting
  EXPECT_EQ(DareFullConfig().mru, 1024);          // = NQ depth
}

TEST(MachineEdge, ZeroDurationWindowUtilization) {
  Simulator sim;
  Machine machine(&sim, Machine::Config{.num_cores = 2});
  EXPECT_DOUBLE_EQ(machine.Utilization(kZeroDuration, 100, 100), 0.0);
  EXPECT_DOUBLE_EQ(machine.Utilization(kZeroDuration, 200, 100), 0.0);
}

TEST(HistogramEdge, RepeatedIdenticalValues) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) {
    h.Record(777777);
  }
  EXPECT_EQ(h.min(), 777777);
  EXPECT_EQ(h.max(), 777777);
  // Every percentile points at the single bucket.
  EXPECT_NEAR(static_cast<double>(h.P50()), 777777.0, 777777.0 * 0.04);
  EXPECT_EQ(h.Percentile(100), 777777);
}

}  // namespace
}  // namespace daredevil
