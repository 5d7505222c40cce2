// Tests for the extension mechanisms: block-layer I/O splitting (§2.3), WRR
// controller arbitration, polled completions, and the remote-doorbell
// contention accounting that feeds the NSQ merit.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/blkmq/blkmq_stack.h"
#include "src/core/daredevil_stack.h"
#include "src/sim/simulator.h"
#include "src/workload/scenario.h"

namespace daredevil {
namespace {

class MechanismsTest : public ::testing::Test {
 protected:
  MechanismsTest() {
    Machine::Config machine_config;
    machine_config.num_cores = 2;
    machine_ = std::make_unique<Machine>(&sim_, machine_config);
    DeviceConfig device_config;
    device_config.nr_nsq = 4;
    device_config.nr_ncq = 4;
    device_config.namespace_pages = {1 << 16};
    device_config.flash.erase_after_programs = 0;
    device_ = std::make_unique<Device>(&sim_, device_config);
    stack_ = std::make_unique<BlkMqStack>(machine_.get(), device_.get(),
                                          StackCosts{});
    tenant_.id = TenantId{1};
    tenant_.core = 0;
  }

  Request* NewRequest(uint32_t pages, uint64_t lba = 0) {
    auto rq = std::make_unique<Request>();
    rq->id = next_id_++;
    rq->tenant = &tenant_;
    rq->pages = pages;
    rq->lba = Lba{lba};
    rq->submit_core = 0;
    rq->on_complete = [this](Request* r) { completed_.push_back(r); };
    requests_.push_back(std::move(rq));
    return requests_.back().get();
  }

  Simulator sim_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<Device> device_;
  std::unique_ptr<BlkMqStack> stack_;
  Tenant tenant_;
  uint64_t next_id_ = (1ULL << 32) + 1;
  std::vector<std::unique_ptr<Request>> requests_;
  std::vector<Request*> completed_;
};

// --- I/O splitting ---------------------------------------------------------

TEST_F(MechanismsTest, SplitDisabledByDefault) {
  EXPECT_EQ(stack_->split_threshold(), 0u);
  stack_->SubmitAsync(NewRequest(32));
  sim_.RunUntilIdle();
  EXPECT_EQ(stack_->requests_split(), 0u);
  EXPECT_EQ(device_->commands_completed(), 1u);
}

TEST_F(MechanismsTest, SplitDecomposesLargeRequests) {
  stack_->SetSplitThreshold(8);
  Request* rq = NewRequest(32);
  stack_->SubmitAsync(rq);
  sim_.RunUntilIdle();
  ASSERT_EQ(completed_.size(), 1u);  // parent completes once
  EXPECT_EQ(completed_[0], rq);
  EXPECT_EQ(stack_->requests_split(), 1u);
  // 4 chunks traversed the device.
  EXPECT_EQ(device_->commands_completed(), 4u);
  EXPECT_EQ(stack_->requests_submitted(), 4u);
  EXPECT_GT(rq->t.complete, rq->t.issue);
}

TEST_F(MechanismsTest, SplitHandlesRemainderChunk) {
  stack_->SetSplitThreshold(8);
  stack_->SubmitAsync(NewRequest(20));  // 8 + 8 + 4
  sim_.RunUntilIdle();
  EXPECT_EQ(device_->commands_completed(), 3u);
  EXPECT_EQ(completed_.size(), 1u);
}

TEST_F(MechanismsTest, SmallRequestsNotSplit) {
  stack_->SetSplitThreshold(8);
  stack_->SubmitAsync(NewRequest(8));
  stack_->SubmitAsync(NewRequest(1));
  sim_.RunUntilIdle();
  EXPECT_EQ(stack_->requests_split(), 0u);
  EXPECT_EQ(device_->commands_completed(), 2u);
}

TEST_F(MechanismsTest, SplitChunksOccupySameTotalNqSpace) {
  // §2.3: the split chunks take more NQ entries but the same page total.
  stack_->SetSplitThreshold(8);
  stack_->SubmitAsync(NewRequest(32));
  sim_.RunUntilIdle();
  EXPECT_EQ(device_->flash().pages_read(), 32u);
  EXPECT_EQ(device_->nsq(0).submitted_rqs(), 4u);  // 4 entries, not 1
}

TEST_F(MechanismsTest, ManyConcurrentSplitsConserve) {
  stack_->SetSplitThreshold(4);
  for (int i = 0; i < 16; ++i) {
    stack_->SubmitAsync(NewRequest(32, static_cast<uint64_t>(i) * 64));
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(completed_.size(), 16u);
  EXPECT_EQ(device_->commands_completed(), 16u * 8u);
}

// --- WRR arbitration --------------------------------------------------------

TEST_F(MechanismsTest, WrrWeightsControlFetchShare) {
  DeviceConfig config;
  config.nr_nsq = 2;
  config.nr_ncq = 2;
  config.arb_burst = 1;
  config.max_inflight_pages = 1;  // force strict one-at-a-time fetching
  config.namespace_pages = {1 << 16};
  config.flash.erase_after_programs = 0;
  Device device(&sim_, config);
  device.nsq(0).set_weight(3);
  std::vector<uint64_t> fetch_order;
  device.SetIrqHandler([&](int ncq) {
    for (const auto& cqe : device.DrainCompletions(ncq, 16)) {
      fetch_order.push_back(cqe.cid);
    }
    device.IrqDone(ncq);
  });
  // Queue 0 (weight 3) ids 100+; queue 1 (weight 1) ids 200+.
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
  sim_.RunUntilIdle();
  ASSERT_EQ(fetch_order.size(), 12u);
  // Among the first 8 completions, ~3/4 should come from the weighted queue.
  int q0 = 0;
  for (size_t i = 0; i < 8; ++i) {
    q0 += fetch_order[i] < 200 ? 1 : 0;
  }
  EXPECT_GE(q0, 5);
}

TEST_F(MechanismsTest, EqualWeightsAlternate) {
  DeviceConfig config;
  config.nr_nsq = 2;
  config.nr_ncq = 2;
  config.arb_burst = 1;
  config.max_inflight_pages = 1;
  config.namespace_pages = {1 << 16};
  config.flash.erase_after_programs = 0;
  Device device(&sim_, config);  // every weight stays 1
  std::vector<uint64_t> order;
  device.SetIrqHandler([&](int ncq) {
    for (const auto& cqe : device.DrainCompletions(ncq, 16)) {
      order.push_back(cqe.cid);
    }
    device.IrqDone(ncq);
  });
  for (uint64_t i = 0; i < 4; ++i) {
    NvmeCommand cmd;
    cmd.cid = 100 + i;
    cmd.lba = Lba{i};
    ASSERT_TRUE(device.Enqueue(0, cmd));
    cmd.cid = 200 + i;
    ASSERT_TRUE(device.Enqueue(1, cmd));
  }
  device.RingDoorbell(0);
  device.RingDoorbell(1);
  sim_.RunUntilIdle();
  int q0_first_half = 0;
  for (size_t i = 0; i < 4; ++i) {
    q0_first_half += order[i] < 200 ? 1 : 0;
  }
  EXPECT_EQ(q0_first_half, 2);  // fair alternation
}

TEST_F(MechanismsTest, DaredevilAppliesWrrWeights) {
  ScenarioConfig cfg = MakeSvmConfig(2);
  cfg.device.nr_nsq = 8;
  cfg.device.nr_ncq = 8;
  cfg.stack = StackKind::kDareFull;
  {
    // The default config weights nothing.
    ScenarioEnv env(cfg);
    for (int q = 0; q < env.device().nr_nsq(); ++q) {
      EXPECT_EQ(env.device().nsq(q).weight(), 1) << "default, nsq " << q;
    }
  }
  cfg.dd.wrr_high_weight = 4;
  ScenarioEnv env(cfg);
  auto* dd = dynamic_cast<DaredevilStack*>(&env.stack());
  ASSERT_NE(dd, nullptr);
  for (int q = 0; q < env.device().nr_nsq(); ++q) {
    const int expected =
        dd->nqreg().GroupOfNsq(q) == NqPrio::kHigh ? 4 : 1;
    EXPECT_EQ(env.device().nsq(q).weight(), expected) << "nsq " << q;
  }
}

// --- Polled completions ------------------------------------------------------

TEST_F(MechanismsTest, PolledNcqNeverRaisesIrq) {
  int irqs = 0;
  // Replace the handler installed by the stack to count raw IRQs.
  device_->SetIrqHandler([&](int) { ++irqs; });
  device_->ncq(0).set_polled(true);
  NvmeCommand cmd;
  cmd.cid = 1;
  ASSERT_TRUE(device_->Enqueue(0, cmd));
  device_->RingDoorbell(0);
  sim_.RunUntilIdle();
  EXPECT_EQ(irqs, 0);
  EXPECT_EQ(device_->ncq(0).pending(), 1u);  // waiting for the poller
}

TEST_F(MechanismsTest, PolledCompletionDeliversWithinInterval) {
  const TickDuration interval{20 * kMicrosecond};
  stack_->EnablePolledCompletion(0, interval);
  Request* rq = NewRequest(1);
  stack_->SubmitAsync(rq);
  // Polling re-arms forever: bound the run instead of draining.
  sim_.RunUntil(5 * kMillisecond);
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_GT(rq->t.complete, rq->t.issue);
}

TEST_F(MechanismsTest, PollingBurnsCpuWhenIdle) {
  stack_->EnablePolledCompletion(0, TickDuration{10 * kMicrosecond});
  sim_.RunUntil(10 * kMillisecond);
  // ~1000 polls of poll_base each, charged as kernel work on the NCQ's core.
  EXPECT_GT(machine_->core(0).busy_ns(WorkLevel::kKernel),
            StackCosts{}.poll_base * 500);
}

// --- Remote-doorbell contention accounting -----------------------------------

TEST_F(MechanismsTest, RemoteNsqAccessAccountsContention) {
  SubmissionQueue sq(QueueId{0}, 16);
  // Same core twice: only the second overlapping acquire would wait; here no
  // overlap and no remote penalty.
  EXPECT_EQ(sq.AcquireSubmitLock(0, TickDuration{100}, CoreId{0},
                                 TickDuration{500}),
            kZeroDuration);
  EXPECT_EQ(sq.remote_acquires(), 0u);
  // A different core pays the cacheline penalty.
  EXPECT_EQ(sq.AcquireSubmitLock(1000, TickDuration{100}, CoreId{1},
                                 TickDuration{500}),
            TickDuration{500});
  EXPECT_EQ(sq.remote_acquires(), 1u);
  EXPECT_EQ(sq.in_contention_ns(), TickDuration{500});
  // Back on the same core: no penalty.
  EXPECT_EQ(sq.AcquireSubmitLock(5000, TickDuration{100}, CoreId{1},
                                 TickDuration{500}),
            kZeroDuration);
}

TEST_F(MechanismsTest, ContentionFeedsNsqMerit) {
  // The contention signal raises the NSQ merit (Algorithm 2 line 6).
  const double merit = NqReg::NsqMeritSample(/*contention_us=*/50.0,
                                             /*submitted=*/100.0,
                                             /*claimed_cores=*/2);
  EXPECT_DOUBLE_EQ(merit, 1.0);
}

}  // namespace
}  // namespace daredevil
