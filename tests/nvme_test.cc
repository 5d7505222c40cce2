// Unit tests for the NVMe device model: queues, flash backend, arbitration,
// backpressure, namespaces, and interrupt generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "src/nvme/device.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"

namespace daredevil {
namespace {

DeviceConfig SmallConfig() {
  DeviceConfig config;
  config.nr_nsq = 8;
  config.nr_ncq = 4;
  config.queue_depth = 16;
  config.namespace_pages = {4096, 4096};
  config.flash.erase_after_programs = 0;  // deterministic latencies
  return config;
}

NvmeCommand MakeCmd(uint64_t cid, uint32_t nsid = 0, uint64_t lba = 0,
                    uint32_t pages = 1, bool write = false) {
  NvmeCommand cmd;
  cmd.cid = cid;
  cmd.nsid = nsid;
  cmd.lba = Lba{lba};
  cmd.pages = pages;
  cmd.is_write = write;
  return cmd;
}

TEST(SubmissionQueueTest, FifoOrderAndDoorbellVisibility) {
  SubmissionQueue sq(QueueId{0}, 4);
  EXPECT_TRUE(sq.Enqueue(MakeCmd(1)));
  EXPECT_TRUE(sq.Enqueue(MakeCmd(2)));
  EXPECT_EQ(sq.size(), 2u);
  EXPECT_EQ(sq.visible(), 0u);
  EXPECT_FALSE(sq.armed());
  sq.RingDoorbell();
  EXPECT_EQ(sq.visible(), 2u);
  EXPECT_EQ(sq.PopVisible().cid, 1u);
  EXPECT_EQ(sq.PopVisible().cid, 2u);
  EXPECT_FALSE(sq.armed());
}

TEST(SubmissionQueueTest, RejectsWhenFull) {
  SubmissionQueue sq(QueueId{0}, 2);
  EXPECT_TRUE(sq.Enqueue(MakeCmd(1)));
  EXPECT_TRUE(sq.Enqueue(MakeCmd(2)));
  EXPECT_FALSE(sq.Enqueue(MakeCmd(3)));
  EXPECT_EQ(sq.full_rejections(), 1u);
  EXPECT_EQ(sq.submitted_rqs(), 2u);
}

TEST(SubmissionQueueTest, LockContentionAccounting) {
  SubmissionQueue sq(QueueId{0}, 16);
  // First acquire at t=100, hold 50: no wait.
  EXPECT_EQ(sq.AcquireSubmitLock(100, TickDuration{50}), kZeroDuration);
  // Second at t=120: waits until 150.
  EXPECT_EQ(sq.AcquireSubmitLock(120, TickDuration{50}), TickDuration{30});
  EXPECT_EQ(sq.in_contention_ns(), TickDuration{30});
  // Third at t=500: lock free.
  EXPECT_EQ(sq.AcquireSubmitLock(500, TickDuration{50}), kZeroDuration);
  EXPECT_EQ(sq.in_contention_ns(), TickDuration{30});
}

TEST(SubmissionQueueTest, MaxOccupancyTracked) {
  SubmissionQueue sq(QueueId{0}, 8);
  sq.Enqueue(MakeCmd(1));
  sq.Enqueue(MakeCmd(2));
  sq.Enqueue(MakeCmd(3));
  sq.RingDoorbell();
  sq.PopVisible();
  EXPECT_EQ(sq.max_occupancy(), 3u);
}

TEST(CompletionQueueTest, CoalescingConfig) {
  CompletionQueue cq(QueueId{0}, 16, CoreId{2});
  EXPECT_TRUE(cq.per_request_irq());
  cq.SetCoalescing(8, TickDuration{50 * kMicrosecond});
  EXPECT_FALSE(cq.per_request_irq());
  EXPECT_EQ(cq.coalesce_count(), 8);
  cq.SetCoalescing(0, kZeroDuration);  // clamps to 1
  EXPECT_TRUE(cq.per_request_irq());
}

TEST(CompletionQueueTest, InFlightAccounting) {
  CompletionQueue cq(QueueId{0}, 16, CoreId{0});
  cq.AddInFlight(3);
  cq.AddInFlight(-1);
  EXPECT_EQ(cq.in_flight_rqs(), 2);
}

TEST(FlashBackendTest, ReadLatencyIdleChip) {
  FlashConfig config;
  config.erase_after_programs = 0;
  FlashBackend flash(config);
  const Tick done = flash.SchedulePage(0, 0, /*is_write=*/false);
  EXPECT_EQ(done, config.page_read + config.channel_xfer);
  EXPECT_EQ(flash.pages_read(), 1u);
}

TEST(FlashBackendTest, WriteLatencyIdleChip) {
  FlashConfig config;
  config.erase_after_programs = 0;
  FlashBackend flash(config);
  const Tick done = flash.SchedulePage(0, 0, /*is_write=*/true);
  EXPECT_EQ(done, config.channel_xfer + config.page_program);
  EXPECT_EQ(flash.pages_written(), 1u);
}

TEST(FlashBackendTest, SameChipSerializes) {
  FlashConfig config;
  config.erase_after_programs = 0;
  FlashBackend flash(config);
  const uint64_t page = 0;
  const Tick first = flash.SchedulePage(0, page, false);
  const Tick second = flash.SchedulePage(0, page, false);
  EXPECT_GE(second, first + config.page_read);
}

TEST(FlashBackendTest, DifferentChipsParallel) {
  FlashConfig config;
  config.erase_after_programs = 0;
  FlashBackend flash(config);
  // Pages 0 and 1 live on different channels (striped by page index).
  const Tick a = flash.SchedulePage(0, 0, false);
  const Tick b = flash.SchedulePage(0, 1, false);
  EXPECT_EQ(a, b);
}

TEST(FlashBackendTest, ChannelBusSharedByChips) {
  FlashConfig config;
  config.erase_after_programs = 0;
  config.channels = 1;
  config.chips_per_channel = 2;
  FlashBackend flash(config);
  // Two different chips, same channel: the out-transfer serializes.
  const Tick a = flash.SchedulePage(0, 0, false);
  const Tick b = flash.SchedulePage(0, 1, false);
  EXPECT_EQ(b, a + config.channel_xfer);
}

TEST(FlashBackendTest, StripingCoversAllChips) {
  FlashConfig config;
  FlashBackend flash(config);
  std::vector<bool> seen(static_cast<size_t>(flash.num_chips()), false);
  for (uint64_t p = 0; p < static_cast<uint64_t>(flash.num_chips()); ++p) {
    const int chip = flash.ChipOf(p);
    ASSERT_GE(chip, 0);
    ASSERT_LT(chip, flash.num_chips());
    seen[static_cast<size_t>(chip)] = true;
  }
  for (bool s : seen) {
    EXPECT_TRUE(s);
  }
}

TEST(FlashBackendTest, EraseAfterProgramsStallsChip) {
  FlashConfig config;
  config.erase_after_programs = 2;
  config.erase_time = kMillisecond;
  FlashBackend flash(config);
  // Pick a chip whose staggered counter starts at 0 (chip of page 0).
  const uint64_t page = 0;
  flash.SchedulePage(0, page, true);
  const Tick second = flash.SchedulePage(0, page, true);
  const uint64_t erases_after_two = flash.erases();
  const Tick third = flash.SchedulePage(0, page, true);
  EXPECT_GE(flash.erases(), erases_after_two);
  EXPECT_GE(third - second, config.erase_time);
}

class DeviceTest : public ::testing::Test {
 protected:
  DeviceTest() : device_(&sim_, SmallConfig()) {
    device_.SetIrqHandler([this](int ncq) { irqs_.push_back(ncq); });
  }

  Simulator sim_;
  Device device_;
  std::vector<int> irqs_;
};

TEST_F(DeviceTest, NsqNcqBinding) {
  EXPECT_EQ(device_.NcqOfNsq(0), 0);
  EXPECT_EQ(device_.NcqOfNsq(5), 1);
  EXPECT_EQ(device_.NsqsOfNcq(1), (std::vector<int>{1, 5}));
  EXPECT_EQ(device_.NsqsOfNcq(3), (std::vector<int>{3, 7}));
}

TEST_F(DeviceTest, NamespaceLayout) {
  EXPECT_EQ(device_.num_namespaces(), 2);
  EXPECT_EQ(device_.NamespaceBasePage(0), 0u);
  EXPECT_EQ(device_.NamespaceBasePage(1), 4096u);
  EXPECT_EQ(device_.NamespacePages(1), 4096u);
}

TEST_F(DeviceTest, CommandCompletesAndRaisesIrq) {
  ASSERT_TRUE(device_.Enqueue(0, MakeCmd(1)));
  device_.RingDoorbell(0);
  sim_.RunUntilIdle();
  EXPECT_EQ(device_.commands_completed(), 1u);
  ASSERT_EQ(irqs_.size(), 1u);
  EXPECT_EQ(irqs_[0], 0);
  auto cqes = device_.DrainCompletions(0, 16);
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].cid, 1u);
  device_.IrqDone(0);
}

TEST_F(DeviceTest, CompletionLandsOnBoundNcq) {
  ASSERT_TRUE(device_.Enqueue(6, MakeCmd(9)));
  device_.RingDoorbell(6);
  sim_.RunUntilIdle();
  ASSERT_EQ(irqs_.size(), 1u);
  EXPECT_EQ(irqs_[0], device_.NcqOfNsq(6));
  EXPECT_EQ(device_.DrainCompletions(2, 16).size(), 1u);
}

TEST_F(DeviceTest, NoFetchWithoutDoorbell) {
  ASSERT_TRUE(device_.Enqueue(0, MakeCmd(1)));
  sim_.RunUntilIdle();
  EXPECT_EQ(device_.commands_fetched(), 0u);
  device_.RingDoorbell(0);
  sim_.RunUntilIdle();
  EXPECT_EQ(device_.commands_fetched(), 1u);
}

TEST_F(DeviceTest, InFlightCountsFromEnqueueToDrain) {
  ASSERT_TRUE(device_.Enqueue(0, MakeCmd(1)));
  EXPECT_EQ(device_.ncq(0).in_flight_rqs(), 1);
  device_.RingDoorbell(0);
  sim_.RunUntilIdle();
  EXPECT_EQ(device_.ncq(0).in_flight_rqs(), 1);  // still not drained
  device_.DrainCompletions(0, 16);
  EXPECT_EQ(device_.ncq(0).in_flight_rqs(), 0);
}

TEST_F(DeviceTest, DrainIntoBatchAppendsAndBoundsOnlyNewEntries) {
  for (uint64_t cid = 1; cid <= 3; ++cid) {
    ASSERT_TRUE(device_.Enqueue(0, MakeCmd(cid)));
  }
  device_.RingDoorbell(0);
  sim_.RunUntilIdle();
  ASSERT_EQ(device_.commands_completed(), 3u);
  std::vector<NvmeCompletion> batch;
  device_.DrainCompletions(0, 1, &batch);
  ASSERT_EQ(batch.size(), 1u);
  const uint64_t first = batch[0].cid;
  EXPECT_EQ(device_.ncq(0).in_flight_rqs(), 2);
  // A drain into an undelivered batch keeps its entries and appends; `max`
  // counts only the entries this drain takes.
  device_.DrainCompletions(0, 1, &batch);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].cid, first);
  EXPECT_NE(batch[1].cid, first);
  EXPECT_EQ(device_.ncq(0).in_flight_rqs(), 1);
  device_.DrainCompletions(0, 16, &batch);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(device_.ncq(0).in_flight_rqs(), 0);
  std::vector<uint64_t> cids;
  for (const NvmeCompletion& cqe : batch) {
    cids.push_back(cqe.cid);
  }
  std::sort(cids.begin(), cids.end());
  EXPECT_EQ(cids, (std::vector<uint64_t>{1, 2, 3}));
}

TEST_F(DeviceTest, RoundRobinAcrossArmedNsqs) {
  // Fill two NSQs, then check interleaved fetch order via fetch timestamps.
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(device_.Enqueue(0, MakeCmd(100 + i)));
    ASSERT_TRUE(device_.Enqueue(1, MakeCmd(200 + i)));
  }
  device_.RingDoorbell(0);
  device_.RingDoorbell(1);
  sim_.RunUntilIdle();
  EXPECT_EQ(device_.commands_completed(), 16u);
  // Both queues fully served; fairness: submitted counts equal.
  EXPECT_EQ(device_.nsq(0).submitted_rqs(), device_.nsq(1).submitted_rqs());
}

TEST_F(DeviceTest, CapacityBackpressureSkipsBulkyHead) {
  DeviceConfig config = SmallConfig();
  config.max_inflight_pages = 4;
  Device device(&sim_, config);
  int irq_count = 0;
  device.SetIrqHandler([&](int ncq) {
    ++irq_count;
    device.DrainCompletions(ncq, 100);
    device.IrqDone(ncq);
  });
  // A bulky command that does not fit (8 pages > 4) on NSQ 0 and a small one
  // on NSQ 1: the small one must slip past the stalled bulky head.
  ASSERT_TRUE(device.Enqueue(0, MakeCmd(1, 0, 0, 8, true)));
  ASSERT_TRUE(device.Enqueue(1, MakeCmd(2, 0, 100, 1, false)));
  device.RingDoorbell(0);
  device.RingDoorbell(1);
  sim_.RunUntilIdle();
  // The bulky command can never fit: it stays stuck, the small one completes.
  EXPECT_EQ(device.commands_completed(), 1u);
  EXPECT_EQ(device.nsq(0).visible(), 1u);
  EXPECT_GT(device.fetch_stall_ns(), 0);
}

// While the device is stalled on capacity, kicks skip the arbitration scan
// when the free buffer cannot hold the smallest armed head. These pin what
// that must not change: when commands are fetched, and the stall clock.
// One chip, so a multi-page command retires its pages at distinct ticks.
DeviceConfig OneChipConfig() {
  DeviceConfig config = SmallConfig();
  config.max_inflight_pages = 8;
  config.flash.channels = 1;
  config.flash.chips_per_channel = 1;
  return config;
}

// Steps to idle, recording each step that retired a flash page (the device
// buffer shrank): its tick and fetch_stall_ns() right after it.
std::vector<std::pair<Tick, Tick>> StepRecordingPageRetires(
    Simulator& sim, const Device& device) {
  std::vector<std::pair<Tick, Tick>> retires;
  int pages = device.inflight_pages();
  while (sim.Step()) {
    if (device.inflight_pages() < pages) {
      retires.emplace_back(sim.now(), device.fetch_stall_ns());
    }
    pages = device.inflight_pages();
  }
  return retires;
}

// Simulated time in [lo, hi) up to tick t.
Tick Overlap(Tick t, Tick lo, Tick hi) {
  return std::max<Tick>(0, std::min(t, hi) - lo);
}

TEST_F(DeviceTest, StalledDeviceFetchesNewSmallCommandAtNextPageDone) {
  Device device(&sim_, OneChipConfig());
  std::map<uint64_t, NvmeCompletion> cqes;
  device.SetIrqHandler([&](int ncq) {
    for (const NvmeCompletion& c : device.DrainCompletions(ncq, 100)) {
      cqes[c.cid] = c;
    }
    device.IrqDone(ncq);
  });
  // A fills the 8-page buffer; B (4 pages) stalls the controller behind it.
  ASSERT_TRUE(device.Enqueue(0, MakeCmd(1, 0, 0, 8)));
  ASSERT_TRUE(device.Enqueue(1, MakeCmd(2, 0, 100, 4)));
  device.RingDoorbell(0);
  device.RingDoorbell(1);
  sim_.RunUntil(10 * kMicrosecond);
  ASSERT_EQ(device.inflight_pages(), 8);
  // A 1-page doorbell mid-stall: smaller than B, so the first freed page
  // must go to it, not wait for B's four.
  ASSERT_TRUE(device.Enqueue(2, MakeCmd(3, 0, 200, 1)));
  device.RingDoorbell(2);
  EXPECT_EQ(device.commands_fetched(), 1u);
  const auto retires = StepRecordingPageRetires(sim_, device);
  ASSERT_EQ(cqes.size(), 3u);
  ASSERT_FALSE(retires.empty());
  const NvmeCompletion& a = cqes[1];
  const NvmeCompletion& b = cqes[2];
  const NvmeCompletion& c = cqes[3];
  EXPECT_EQ(c.t.fetch_start, retires.front().first);
  EXPECT_LT(c.t.fetch_start, b.t.fetch_start);
  // Two stall episodes: behind A until C slips in, then behind C until B
  // fits. The stall clock must read exactly their length at every kick.
  auto stalled_by = [&](Tick t) {
    return Overlap(t, a.t.fetch, c.t.fetch_start) +
           Overlap(t, c.t.fetch, b.t.fetch_start);
  };
  for (const auto& [at, stall_ns] : retires) {
    EXPECT_EQ(stall_ns, stalled_by(at)) << "page retired at tick " << at;
  }
  EXPECT_GT(device.fetch_stall_ns(), 0);
  EXPECT_EQ(device.fetch_stall_ns(), stalled_by(sim_.now()));
}

TEST_F(DeviceTest, AbortingStalledBulkyHeadLetsNextKickFetchCommandBehindIt) {
  Device device(&sim_, OneChipConfig());
  std::map<uint64_t, NvmeCompletion> cqes;
  device.SetIrqHandler([&](int ncq) {
    for (const NvmeCompletion& c : device.DrainCompletions(ncq, 100)) {
      cqes[c.cid] = c;
    }
    device.IrqDone(ncq);
  });
  // A fills the buffer; NSQ 1 holds a bulky B (8 pages) with a 1-page D
  // queued behind it.
  ASSERT_TRUE(device.Enqueue(0, MakeCmd(1, 0, 0, 8)));
  ASSERT_TRUE(device.Enqueue(1, MakeCmd(2, 0, 100, 8)));
  ASSERT_TRUE(device.Enqueue(1, MakeCmd(4, 0, 200, 1)));
  device.RingDoorbell(0);
  device.RingDoorbell(1);
  // Step to A's first page completion: one free page, still short of B.
  while (device.inflight_pages() != 7 && sim_.Step()) {
  }
  ASSERT_EQ(device.inflight_pages(), 7);
  EXPECT_EQ(device.commands_fetched(), 1u);
  EXPECT_EQ(device.AbortCommand(1, 2), Device::AbortOutcome::kRemovedFromQueue);
  // The abort kicks nothing; the next page completion must fetch D.
  const auto retires = StepRecordingPageRetires(sim_, device);
  ASSERT_FALSE(retires.empty());
  ASSERT_EQ(cqes.count(4), 1u);
  EXPECT_EQ(cqes[4].t.fetch_start, retires.front().first);
  EXPECT_EQ(cqes.count(2), 0u);
  EXPECT_EQ(device.commands_fetched(), 2u);
}

TEST_F(DeviceTest, BulkyCommandFetchesWhenCapacityFrees) {
  DeviceConfig config = SmallConfig();
  config.max_inflight_pages = 8;
  Device device(&sim_, config);
  device.SetIrqHandler([&](int ncq) {
    device.DrainCompletions(ncq, 100);
    device.IrqDone(ncq);
  });
  ASSERT_TRUE(device.Enqueue(0, MakeCmd(1, 0, 0, 8, true)));
  ASSERT_TRUE(device.Enqueue(0, MakeCmd(2, 0, 64, 8, true)));
  device.RingDoorbell(0);
  sim_.RunUntilIdle();
  EXPECT_EQ(device.commands_completed(), 2u);
  EXPECT_EQ(device.inflight_pages(), 0);
}

TEST_F(DeviceTest, CoalescedIrqWaitsForCountOrTimeout) {
  device_.ncq(0).SetCoalescing(4, TickDuration{50 * kMicrosecond});
  ASSERT_TRUE(device_.Enqueue(0, MakeCmd(1)));
  device_.RingDoorbell(0);
  sim_.RunUntilIdle();
  // One completion < count 4: the IRQ comes from the timeout path.
  ASSERT_EQ(irqs_.size(), 1u);
  EXPECT_GE(sim_.now(), 50 * kMicrosecond);
}

TEST_F(DeviceTest, CoalescedIrqFiresAtCount) {
  device_.ncq(0).SetCoalescing(2, TickDuration{kSecond});  // effectively no timeout
  for (uint64_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(device_.Enqueue(0, MakeCmd(1 + i, 0, i * 64)));
  }
  device_.RingDoorbell(0);
  sim_.RunUntil(100 * kMillisecond);
  ASSERT_EQ(irqs_.size(), 1u);
  EXPECT_LT(sim_.now(), kSecond);
  EXPECT_EQ(device_.DrainCompletions(0, 16).size(), 2u);
}

TEST_F(DeviceTest, IrqMaskedUntilIrqDone) {
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(device_.Enqueue(0, MakeCmd(1 + i, 0, i)));
  }
  device_.RingDoorbell(0);
  sim_.RunUntilIdle();
  // Per-request path: first IRQ raised, further completions masked.
  EXPECT_EQ(irqs_.size(), 1u);
  auto cqes = device_.DrainCompletions(0, 16);
  EXPECT_EQ(cqes.size(), 4u);
  device_.IrqDone(0);
  EXPECT_EQ(irqs_.size(), 1u);  // nothing pending, no re-raise
}

TEST_F(DeviceTest, IrqDoneReRaisesWhenPending) {
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(device_.Enqueue(0, MakeCmd(1 + i, 0, i)));
  }
  device_.RingDoorbell(0);
  sim_.RunUntilIdle();
  ASSERT_EQ(irqs_.size(), 1u);
  // Drain only one: IrqDone must re-raise for the remaining two.
  device_.DrainCompletions(0, 1);
  device_.IrqDone(0);
  EXPECT_EQ(irqs_.size(), 2u);
}

TEST_F(DeviceTest, MultiPageCommandLatencyScalesWithPages) {
  ASSERT_TRUE(device_.Enqueue(0, MakeCmd(1, 0, 0, 1, false)));
  device_.RingDoorbell(0);
  sim_.RunUntilIdle();
  const Tick small_done = sim_.now();
  device_.DrainCompletions(0, 16);
  device_.IrqDone(0);

  Simulator sim2;
  Device device2(&sim2, SmallConfig());
  bool fired = false;
  device2.SetIrqHandler([&](int) { fired = true; });
  // 8 pages striped over 8 channels: roughly one page per chip, so the
  // completion is later than the single page but far less than 8x.
  ASSERT_TRUE(device2.Enqueue(0, MakeCmd(1, 0, 0, 8, false)));
  device2.RingDoorbell(0);
  sim2.RunUntilIdle();
  EXPECT_TRUE(fired);
  EXPECT_GT(sim2.now(), small_done);
  EXPECT_LT(sim2.now(), small_done * 8);
}

TEST_F(DeviceTest, NamespaceIsolationDistinctChipsSets) {
  // Same LBA in two namespaces maps to different global pages.
  ASSERT_TRUE(device_.Enqueue(0, MakeCmd(1, 0, 7)));
  ASSERT_TRUE(device_.Enqueue(0, MakeCmd(2, 1, 7)));
  device_.RingDoorbell(0);
  sim_.RunUntilIdle();
  EXPECT_EQ(device_.commands_completed(), 2u);
  // Global pages differ by the namespace base.
  EXPECT_NE(device_.NamespaceBasePage(0) + 7, device_.NamespaceBasePage(1) + 7);
}

TEST_F(DeviceTest, ConservationUnderLoad) {
  DeviceConfig config = SmallConfig();
  config.queue_depth = 64;
  Device device(&sim_, config);
  uint64_t drained = 0;
  device.SetIrqHandler([&](int ncq) {
    drained += device.DrainCompletions(ncq, 100).size();
    device.IrqDone(ncq);
  });
  Rng rng(77);
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    const int sq = static_cast<int>(rng.NextBelow(8));
    const auto pages = static_cast<uint32_t>(rng.NextInt(1, 8));
    const uint32_t nsid = static_cast<uint32_t>(rng.NextBelow(2));
    const uint64_t lba = rng.NextBelow(4096 - pages);
    ASSERT_TRUE(device.Enqueue(sq, MakeCmd(static_cast<uint64_t>(i) + 1, nsid,
                                           lba, pages, rng.NextBool(0.5))));
    device.RingDoorbell(sq);
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(device.commands_completed(), static_cast<uint64_t>(n));
  EXPECT_EQ(drained, static_cast<uint64_t>(n));
  EXPECT_EQ(device.inflight_pages(), 0);
}

}  // namespace
}  // namespace daredevil
