// Unit tests for the discrete-event engine: simulator, RNG, CPU model, and
// the RingFifo queue under the CPU model and the NVMe queue rings.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/nvme/queues.h"
#include "src/sim/cpu.h"
#include "src/sim/ring_fifo.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"

namespace daredevil {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(SimulatorTest, ProcessesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(30, [&]() { order.push_back(3); });
  sim.At(10, [&]() { order.push_back(1); });
  sim.At(20, [&]() { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(SimulatorTest, EqualTimestampsFireInInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.At(5, [&order, i]() { order.push_back(i); });
  }
  sim.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, PastEventsClampToNow) {
  Simulator sim;
  sim.At(100, []() {});
  sim.RunUntilIdle();
  bool fired = false;
  sim.At(50, [&]() { fired = true; });  // in the past
  sim.RunUntilIdle();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 100);
}

TEST(SimulatorTest, AfterSchedulesRelative) {
  Simulator sim;
  Tick fired_at = -1;
  sim.At(40,
         [&]() { sim.After(TickDuration{25}, [&]() { fired_at = sim.now(); }); });
  sim.RunUntilIdle();
  EXPECT_EQ(fired_at, 65);
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  int fired = 0;
  sim.At(10, [&]() { ++fired; });
  sim.At(20, [&]() { ++fired; });
  sim.At(21, [&]() { ++fired; });
  sim.RunUntil(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, NestedSchedulingWithinRunUntil) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&]() {
    ++count;
    if (count < 5) {
      sim.After(TickDuration{10}, chain);
    }
  };
  sim.After(TickDuration{10}, chain);
  sim.RunUntil(100);
  EXPECT_EQ(count, 5);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == b.NextU64() ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBoolRespectsProbabilityRoughly) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += rng.NextBool(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(RngTest, NextBoolEdgeCases) {
  Rng rng(17);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
  EXPECT_FALSE(rng.NextBool(-1.0));
  EXPECT_TRUE(rng.NextBool(2.0));
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  Rng rng(19);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(100.0);
  }
  EXPECT_NEAR(sum / n, 100.0, 3.0);
}

TEST(RngTest, ForkIsIndependentButDeterministic) {
  Rng a(31);
  Rng b(31);
  Rng fa = a.Fork();
  Rng fb = b.Fork();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(fa.NextU64(), fb.NextU64());
  }
}

TEST(ZipfianTest, ValuesInRange) {
  Rng rng(5);
  ZipfianGenerator zipf(1000, 0.99);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(zipf.Next(rng), 1000u);
  }
}

TEST(ZipfianTest, SkewFavorsSmallKeys) {
  Rng rng(5);
  ZipfianGenerator zipf(10000, 0.99);
  int small = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    small += zipf.Next(rng) < 100 ? 1 : 0;  // top 1% of keys
  }
  // Zipf(0.99): the head is heavily favored; uniform would give ~1%.
  EXPECT_GT(small, n / 4);
}

TEST(CpuCoreTest, ExecutesWorkAndAccountsTime) {
  Simulator sim;
  CpuCore core(&sim, CoreId{0}, /*dispatch_overhead=*/kZeroDuration);
  bool done = false;
  core.Post(WorkLevel::kUser, TickDuration{1000}, [&]() { done = true; });
  sim.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_EQ(core.busy_ns(WorkLevel::kUser), TickDuration{1000});
  EXPECT_EQ(core.total_busy_ns(), TickDuration{1000});
  EXPECT_EQ(sim.now(), 1000);
}

TEST(CpuCoreTest, PriorityOrderIrqBeforeKernelBeforeUser) {
  Simulator sim;
  CpuCore core(&sim, CoreId{0}, kZeroDuration);
  std::vector<int> order;
  // Occupy the core so all three wait in queues.
  core.Post(WorkLevel::kUser, TickDuration{100}, [&]() { order.push_back(0); });
  core.Post(WorkLevel::kUser, TickDuration{10}, [&]() { order.push_back(3); });
  core.Post(WorkLevel::kKernel, TickDuration{10}, [&]() { order.push_back(2); });
  core.Post(WorkLevel::kIrq, TickDuration{10}, [&]() { order.push_back(1); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(CpuCoreTest, FifoWithinLevel) {
  Simulator sim;
  CpuCore core(&sim, CoreId{0}, kZeroDuration);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    core.Post(WorkLevel::kUser, TickDuration{10},
              [&order, i]() { order.push_back(i); });
  }
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(CpuCoreTest, DispatchOverheadCharged) {
  Simulator sim;
  CpuCore core(&sim, CoreId{0}, /*dispatch_overhead=*/TickDuration{50});
  core.Post(WorkLevel::kUser, TickDuration{100}, nullptr);
  core.Post(WorkLevel::kUser, TickDuration{100}, nullptr);
  sim.RunUntilIdle();
  EXPECT_EQ(sim.now(), 300);
  EXPECT_EQ(core.total_busy_ns(), TickDuration{300});
}

TEST(MachineTest, CrossCorePostDelaysAndCounts) {
  Simulator sim;
  Machine::Config config;
  config.num_cores = 2;
  config.dispatch_overhead = kZeroDuration;
  config.cross_core_wakeup = TickDuration{500};
  Machine machine(&sim, config);

  Tick local_done = -1;
  Tick remote_done = -1;
  machine.Post(0, WorkLevel::kUser, TickDuration{100},
               [&]() { local_done = sim.now(); }, /*from_core=*/0);
  machine.Post(1, WorkLevel::kUser, TickDuration{100},
               [&]() { remote_done = sim.now(); }, /*from_core=*/0);
  sim.RunUntilIdle();
  EXPECT_EQ(local_done, 100);
  EXPECT_EQ(remote_done, 600);  // 500 wakeup + 100 work
  EXPECT_EQ(machine.cross_core_posts(), 1u);
}

TEST(MachineTest, UtilizationComputation) {
  Simulator sim;
  Machine::Config config;
  config.num_cores = 2;
  config.dispatch_overhead = kZeroDuration;
  Machine machine(&sim, config);
  machine.Post(0, WorkLevel::kUser, TickDuration{1000}, nullptr);
  sim.RunUntil(1000);
  // 1000ns busy out of 2 cores x 1000ns.
  EXPECT_DOUBLE_EQ(machine.Utilization(kZeroDuration, 0, 1000), 0.5);
}

// Property: interleaved workloads on a core never lose work items and busy
// time equals the sum of posted durations (dispatch overhead zero).
TEST(CpuCoreTest, ConservationUnderRandomLoad) {
  Simulator sim;
  CpuCore core(&sim, CoreId{0}, kZeroDuration);
  Rng rng(99);
  TickDuration total;
  int executed = 0;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    const TickDuration d{rng.NextInt(1, 1000)};
    total += d;
    const auto level = static_cast<WorkLevel>(rng.NextBelow(3));
    sim.At(rng.NextInt(0, 10000), [&core, &executed, level, d]() {
      core.Post(level, d, [&executed]() { ++executed; });
    });
  }
  sim.RunUntilIdle();
  EXPECT_EQ(executed, n);
  EXPECT_EQ(core.total_busy_ns(), total);
}

std::vector<int> Contents(const RingFifo<int>& ring) {
  std::vector<int> out;
  for (size_t i = 0; i < ring.size(); ++i) {
    out.push_back(ring[i]);
  }
  return out;
}

TEST(RingFifoTest, OrderSurvivesGrowthWhileWrapped) {
  RingFifo<int> ring;
  // Slide the head forward, then refill until the live range wraps past
  // the end of the array and the array is full.
  for (int i = 0; i < 10; ++i) {
    ring.push_back(i);
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(ring.front(), i);
    ring.pop_front();
  }
  std::vector<int> want = {6, 7, 8, 9};
  for (int i = 10; static_cast<int>(want.size()) < 16; ++i) {
    ring.push_back(i);
    want.push_back(i);
  }
  ASSERT_EQ(Contents(ring), want);
  // The next pushes grow the wrapped array twice.
  for (int i = 100; i < 120; ++i) {
    ring.push_back(i);
    want.push_back(i);
  }
  EXPECT_EQ(Contents(ring), want);
  for (const int v : want) {
    ASSERT_FALSE(ring.empty());
    EXPECT_EQ(ring.front(), v);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(RingFifoTest, EraseAtMiddleKeepsOrder) {
  RingFifo<std::unique_ptr<int>> ring;  // move-only: erase_at must move
  for (int i = 0; i < 12; ++i) {
    ring.push_back(std::make_unique<int>(i));
  }
  for (int i = 0; i < 5; ++i) {
    ring.pop_front();  // head now mid-array, so the shift crosses the wrap
  }
  for (int i = 12; i < 20; ++i) {
    ring.push_back(std::make_unique<int>(i));
  }
  ring.erase_at(4);  // value 9
  ring.erase_at(0);  // value 5 (the front)
  ring.erase_at(ring.size() - 1);  // value 19 (the back)
  std::vector<int> got;
  while (!ring.empty()) {
    got.push_back(*ring.front());
    ring.pop_front();
  }
  EXPECT_EQ(got, (std::vector<int>{6, 7, 8, 10, 11, 12, 13, 14, 15, 16, 17,
                                   18}));
}

TEST(RingFifoTest, SubmissionQueueRemoveByIdAcrossWrap) {
  SubmissionQueue sq(QueueId{0}, 64);
  auto cmd = [](uint64_t cid) {
    NvmeCommand c;
    c.cid = cid;
    return c;
  };
  // Move the ring's head to the middle of its array, then enqueue past the
  // array's end: cids 10..17 are visible, 20..25 enqueued but not rung and
  // stored wrapped around to the array's start.
  for (uint64_t cid = 0; cid < 8; ++cid) {
    ASSERT_TRUE(sq.Enqueue(cmd(cid)));
  }
  sq.RingDoorbell();
  while (sq.armed()) {
    sq.PopVisible();
  }
  for (uint64_t cid = 10; cid < 18; ++cid) {
    ASSERT_TRUE(sq.Enqueue(cmd(cid)));
  }
  sq.RingDoorbell();
  for (uint64_t cid = 20; cid < 26; ++cid) {
    ASSERT_TRUE(sq.Enqueue(cmd(cid)));
  }
  ASSERT_EQ(sq.visible(), 8u);
  EXPECT_TRUE(sq.RemoveById(12));  // visible: the visible prefix shrinks
  EXPECT_EQ(sq.visible(), 7u);
  EXPECT_TRUE(sq.RemoveById(22));  // not yet rung: the prefix is unchanged
  EXPECT_EQ(sq.visible(), 7u);
  EXPECT_FALSE(sq.RemoveById(12));
  EXPECT_EQ(sq.size(), 12u);
  std::vector<uint64_t> fetched;
  while (sq.armed()) {
    fetched.push_back(sq.PopVisible().cid);
  }
  EXPECT_EQ(fetched, (std::vector<uint64_t>{10, 11, 13, 14, 15, 16, 17}));
  sq.RingDoorbell();
  fetched.clear();
  while (sq.armed()) {
    fetched.push_back(sq.PopVisible().cid);
  }
  EXPECT_EQ(fetched, (std::vector<uint64_t>{20, 21, 23, 24, 25}));
}

}  // namespace
}  // namespace daredevil
