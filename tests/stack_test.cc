// Unit tests for the shared storage-stack plumbing: submission path, NSQ
// locking, doorbell policies, ISR/completion delivery, requeue on full rings.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/sim/simulator.h"
#include "src/stack/storage_stack.h"

namespace daredevil {
namespace {

// Minimal concrete stack: routes every request to a fixed NSQ.
class FixedStack : public StorageStack {
 public:
  FixedStack(Machine* machine, Device* device, const StackCosts& costs, int nsq)
      : StorageStack(machine, device, costs), nsq_(nsq) {}

  std::string_view name() const override { return "fixed"; }
  StackCapabilities capabilities() const override { return {}; }

  using StorageStack::SetCompletionPath;
  using StorageStack::SetDoorbellPolicy;

  void set_nsq(int nsq) { nsq_ = nsq; }

 protected:
  int RouteRequest(Request* rq) override {
    (void)rq;
    return nsq_;
  }

 private:
  int nsq_;
};

class StackTest : public ::testing::Test {
 protected:
  StackTest() {
    Machine::Config machine_config;
    machine_config.num_cores = 2;
    machine_ = std::make_unique<Machine>(&sim_, machine_config);
    DeviceConfig device_config;
    device_config.nr_nsq = 4;
    device_config.nr_ncq = 4;
    device_config.queue_depth = 8;
    device_config.namespace_pages = {1 << 16};
    device_config.flash.erase_after_programs = 0;
    device_ = std::make_unique<Device>(&sim_, device_config);
    stack_ = std::make_unique<FixedStack>(machine_.get(), device_.get(),
                                          StackCosts{}, 0);
    tenant_.id = TenantId{1};
    tenant_.core = 0;
  }

  Request* NewRequest(uint32_t pages = 1) {
    auto rq = std::make_unique<Request>();
    rq->id = next_id_++;
    rq->tenant = &tenant_;
    rq->pages = pages;
    rq->submit_core = tenant_.core;
    rq->t.issue = sim_.now();
    rq->on_complete = [this](Request* r) { completed_.push_back(r); };
    requests_.push_back(std::move(rq));
    return requests_.back().get();
  }

  Simulator sim_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<Device> device_;
  std::unique_ptr<FixedStack> stack_;
  Tenant tenant_;
  uint64_t next_id_ = 1;
  std::vector<std::unique_ptr<Request>> requests_;
  std::vector<Request*> completed_;
};

TEST_F(StackTest, SubmitCompletesRoundTrip) {
  Request* rq = NewRequest();
  stack_->SubmitAsync(rq);
  sim_.RunUntilIdle();
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_EQ(completed_[0], rq);
  EXPECT_GT(rq->t.complete, rq->t.issue);
  EXPECT_EQ(rq->routed_nsq, 0);
  EXPECT_EQ(stack_->requests_submitted(), 1u);
  EXPECT_EQ(stack_->requests_completed(), 1u);
}

TEST_F(StackTest, TimestampsMonotone) {
  Request* rq = NewRequest();
  stack_->SubmitAsync(rq);
  sim_.RunUntilIdle();
  EXPECT_LE(rq->t.issue, rq->t.submit);
  EXPECT_LE(rq->t.submit, rq->t.nsq_enqueue);
  EXPECT_LT(rq->t.nsq_enqueue, rq->t.complete);
}

TEST_F(StackTest, KernelWorkChargedOnSubmitCore) {
  Request* rq = NewRequest();
  stack_->SubmitAsync(rq);
  sim_.RunUntilIdle();
  EXPECT_GT(machine_->core(0).busy_ns(WorkLevel::kKernel), kZeroDuration);
}

TEST_F(StackTest, LargeRequestCostsMoreKernelTime) {
  Request* small = NewRequest(1);
  stack_->SubmitAsync(small);
  sim_.RunUntilIdle();
  const TickDuration small_kernel = machine_->core(0).busy_ns(WorkLevel::kKernel);

  Request* big = NewRequest(32);
  stack_->SubmitAsync(big);
  sim_.RunUntilIdle();
  const TickDuration big_kernel =
      machine_->core(0).busy_ns(WorkLevel::kKernel) - small_kernel;
  EXPECT_GT(big_kernel, small_kernel);
}

TEST_F(StackTest, RequeueOnFullRing) {
  // A tiny ring behind a capacity-stalled controller: submissions outpace
  // fetches, the ring fills, and the overflow requeues until space frees.
  DeviceConfig config;
  config.nr_nsq = 4;
  config.nr_ncq = 4;
  config.queue_depth = 4;
  config.max_inflight_pages = 8;
  config.namespace_pages = {1 << 16};
  config.flash.erase_after_programs = 0;
  Device device(&sim_, config);
  FixedStack stack(machine_.get(), &device, StackCosts{}, 0);
  std::vector<std::unique_ptr<Request>> requests;
  int done = 0;
  for (int i = 0; i < 12; ++i) {
    auto rq = std::make_unique<Request>();
    rq->id = 1000 + static_cast<uint64_t>(i);
    rq->tenant = &tenant_;
    rq->pages = 8;
    rq->submit_core = 0;
    rq->on_complete = [&done](Request*) { ++done; };
    stack.SubmitAsync(rq.get());
    requests.push_back(std::move(rq));
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(done, 12);
  EXPECT_GT(stack.requeues(), 0u);
}

TEST_F(StackTest, CrossCoreCompletionCountedAndDelayed) {
  // NCQ 1 IRQs on core 1 (round-robin assignment); tenant on core 0.
  stack_->set_nsq(1);
  Request* rq = NewRequest();
  stack_->SubmitAsync(rq);
  sim_.RunUntilIdle();
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_EQ(stack_->cross_core_completions(), 1u);
  EXPECT_GT(machine_->cross_core_posts(), 0u);
}

TEST_F(StackTest, LocalCompletionNotCounted) {
  stack_->set_nsq(0);  // NCQ 0 -> core 0 == tenant core
  stack_->SubmitAsync(NewRequest());
  sim_.RunUntilIdle();
  EXPECT_EQ(stack_->cross_core_completions(), 0u);
}

TEST_F(StackTest, BatchedDoorbellDefersUntilBatch) {
  StorageStack::DoorbellPolicy policy;
  policy.batched = true;
  policy.batch = 3;
  policy.timeout = TickDuration{kSecond};  // effectively no timeout
  stack_->SetDoorbellPolicy(0, policy);

  stack_->SubmitAsync(NewRequest());
  stack_->SubmitAsync(NewRequest());
  sim_.RunUntil(10 * kMillisecond);
  EXPECT_EQ(device_->commands_fetched(), 0u);  // batch of 3 not reached

  stack_->SubmitAsync(NewRequest());
  sim_.RunUntil(20 * kMillisecond);
  EXPECT_EQ(completed_.size(), 3u);  // doorbell rung at batch
}

TEST_F(StackTest, BatchedDoorbellTimeoutFlushes) {
  StorageStack::DoorbellPolicy policy;
  policy.batched = true;
  policy.batch = 8;
  policy.timeout = TickDuration{200 * kMicrosecond};
  stack_->SetDoorbellPolicy(0, policy);

  stack_->SubmitAsync(NewRequest());
  sim_.RunUntil(10 * kMillisecond);
  EXPECT_EQ(completed_.size(), 1u);  // flushed by the timeout
}

TEST_F(StackTest, CompletionPathSelection) {
  stack_->SetCompletionPath(0, /*per_request=*/true);
  EXPECT_TRUE(device_->ncq(0).per_request_irq());
  stack_->SetCompletionPath(0, /*per_request=*/false);
  EXPECT_FALSE(device_->ncq(0).per_request_irq());
  EXPECT_EQ(device_->ncq(0).coalesce_count(), device_->config().coalesce_count);
}

TEST_F(StackTest, DriverDefaultCoalescingAppliedAtAttach) {
  // The constructor applies the kernel-default mild batching to every NCQ.
  for (int i = 0; i < device_->nr_ncq(); ++i) {
    EXPECT_EQ(device_->ncq(i).coalesce_count(),
              device_->config().driver_coalesce_count);
  }
}

TEST_F(StackTest, IrqCoresSpreadRoundRobin) {
  EXPECT_EQ(device_->ncq(0).irq_core(), CoreId{0});
  EXPECT_EQ(device_->ncq(1).irq_core(), CoreId{1});
  EXPECT_EQ(device_->ncq(2).irq_core(), CoreId{0});
  EXPECT_EQ(device_->ncq(3).irq_core(), CoreId{1});
}

TEST_F(StackTest, LockContentionAccumulates) {
  // Two tenants on different cores submitting to the same NSQ at the same
  // instant: the second waits for the first's doorbell critical section.
  Tenant other;
  other.id = TenantId{2};
  other.core = 1;
  auto rq1 = std::make_unique<Request>();
  rq1->id = 100;
  rq1->tenant = &tenant_;
  rq1->pages = 1;
  rq1->submit_core = 0;
  auto rq2 = std::make_unique<Request>();
  rq2->id = 101;
  rq2->tenant = &other;
  rq2->pages = 1;
  rq2->submit_core = 1;
  int done = 0;
  rq1->on_complete = [&](Request*) { ++done; };
  rq2->on_complete = rq1->on_complete;
  stack_->SubmitAsync(rq1.get());
  stack_->SubmitAsync(rq2.get());
  sim_.RunUntilIdle();
  EXPECT_EQ(done, 2);
  // Both kernel work items finish at the same tick on two cores, so the
  // second locker waits.
  EXPECT_GT(stack_->submission_lock_wait_ns(), kZeroDuration);
  EXPECT_GT(device_->nsq(0).in_contention_ns(), kZeroDuration);
}

TEST_F(StackTest, ManyRequestsConservation) {
  for (int i = 0; i < 50; ++i) {
    stack_->SubmitAsync(NewRequest());
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(completed_.size(), 50u);
  EXPECT_EQ(stack_->requests_submitted(), 50u);
  EXPECT_EQ(stack_->requests_completed(), 50u);
  EXPECT_EQ(device_->commands_fetched(), device_->commands_completed());
}

}  // namespace
}  // namespace daredevil
