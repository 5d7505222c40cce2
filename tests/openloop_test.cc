// Tests for the open-loop workload generator.
#include <gtest/gtest.h>

#include <memory>

#include "src/workload/open_loop.h"
#include "src/workload/scenario.h"

namespace daredevil {
namespace {

class OpenLoopTest : public ::testing::Test {
 protected:
  OpenLoopTest() {
    ScenarioConfig cfg = MakeSvmConfig(2);
    cfg.device.nr_nsq = 8;
    cfg.device.nr_ncq = 8;
    env_ = std::make_unique<ScenarioEnv>(cfg);
  }

  OpenLoopSpec BaseSpec() {
    OpenLoopSpec spec;
    spec.name = "ol";
    spec.group = "L";
    spec.iops = 20000;
    spec.pages = 1;
    return spec;
  }

  std::unique_ptr<ScenarioEnv> env_;
};

TEST_F(OpenLoopTest, ArrivalRateRoughlyMatchesConfigured) {
  OpenLoopSpec spec = BaseSpec();
  OpenLoopJob job(&env_->machine(), &env_->stack(), spec, 1, Rng(3), 0,
                  100 * kMillisecond);
  job.Start();
  env_->sim().RunUntil(100 * kMillisecond);
  // 20K IOPS for 100ms => ~2000 arrivals (Poisson, allow 15%).
  EXPECT_NEAR(static_cast<double>(job.total_arrivals()), 2000.0, 300.0);
  EXPECT_GT(job.measured_ios(), 0u);
}

TEST_F(OpenLoopTest, BurstsInflateArrivalCount) {
  OpenLoopSpec spec = BaseSpec();
  spec.burst_prob = 1.0;  // every arrival slot is a full burst
  spec.burst_len = 4;
  OpenLoopJob job(&env_->machine(), &env_->stack(), spec, 1, Rng(3), 0,
                  50 * kMillisecond);
  job.Start();
  env_->sim().RunUntil(50 * kMillisecond);
  // 20K slots/s * 4 per slot * 50ms => ~4000 arrivals.
  EXPECT_NEAR(static_cast<double>(job.total_arrivals()), 4000.0, 700.0);
}

TEST_F(OpenLoopTest, MaxOutstandingDropsExcess) {
  OpenLoopSpec spec = BaseSpec();
  spec.iops = 500000;  // far above the device's capability
  spec.max_outstanding = 16;
  OpenLoopJob job(&env_->machine(), &env_->stack(), spec, 1, Rng(3), 0,
                  20 * kMillisecond);
  job.Start();
  env_->sim().RunUntil(20 * kMillisecond);
  EXPECT_GT(job.dropped_arrivals(), 0u);
  EXPECT_LE(job.outstanding(), 16);
}

TEST_F(OpenLoopTest, ArrivalsContinueRegardlessOfCompletions) {
  // Open-loop property: arrivals keep coming even while earlier requests are
  // stuck behind a slow device.
  ScenarioConfig cfg = MakeSvmConfig(1);
  cfg.device.nr_nsq = 2;
  cfg.device.nr_ncq = 2;
  cfg.device.flash.page_read = 10 * kMillisecond;  // glacial device
  ScenarioEnv env(cfg);
  OpenLoopSpec spec = BaseSpec();
  spec.iops = 5000;
  OpenLoopJob job(&env.machine(), &env.stack(), spec, 1, Rng(3), 0,
                  10 * kMillisecond);
  job.Start();
  env.sim().RunUntil(10 * kMillisecond);
  // ~50 arrivals despite nearly zero completions.
  EXPECT_GT(job.total_arrivals(), 20u);
  EXPECT_GT(job.outstanding(), 10);
}

TEST_F(OpenLoopTest, MeasurementWindowRespected) {
  OpenLoopSpec spec = BaseSpec();
  OpenLoopJob job(&env_->machine(), &env_->stack(), spec, 1, Rng(3),
                  /*measure_start=*/50 * kMillisecond,
                  /*measure_end=*/100 * kMillisecond);
  job.Start();
  env_->sim().RunUntil(40 * kMillisecond);
  EXPECT_EQ(job.measured_ios(), 0u);  // before the window
  env_->sim().RunUntil(100 * kMillisecond);
  EXPECT_GT(job.measured_ios(), 0u);
}

TEST_F(OpenLoopTest, DeterministicAcrossRuns) {
  uint64_t arrivals[2];
  for (int run = 0; run < 2; ++run) {
    ScenarioConfig cfg = MakeSvmConfig(2);
    cfg.device.nr_nsq = 8;
    cfg.device.nr_ncq = 8;
    ScenarioEnv env(cfg);
    OpenLoopSpec spec = BaseSpec();
    spec.burst_prob = 0.2;
    OpenLoopJob job(&env.machine(), &env.stack(), spec, 1, Rng(99), 0,
                    30 * kMillisecond);
    job.Start();
    env.sim().RunUntil(30 * kMillisecond);
    arrivals[run] = job.total_arrivals();
  }
  EXPECT_EQ(arrivals[0], arrivals[1]);
}

#if DAREDEVIL_INVARIANTS

// The tenant I/O core checks every source's shape (1 <= pages <= namespace
// pages) before any arithmetic on it. Unchecked, an open-loop source wider
// than its namespace underflows its random LBA range and completes I/Os at
// out-of-range LBAs.
class OpenLoopDeathTest : public ::testing::Test {
 protected:
  OpenLoopDeathTest() {
    ScenarioConfig cfg = MakeSvmConfig(2);
    cfg.device.namespace_pages = {16};
    env_ = std::make_unique<ScenarioEnv>(cfg);
  }

  void Build(uint32_t pages) {
    OpenLoopSpec spec;
    spec.name = "wide";
    spec.pages = pages;
    OpenLoopJob job(&env_->machine(), &env_->stack(), spec, 1, Rng(3), 0,
                    5 * kMillisecond);
    job.Start();
    env_->sim().RunUntil(5 * kMillisecond);
  }

  std::unique_ptr<ScenarioEnv> env_;
};

TEST_F(OpenLoopDeathTest, WiderThanNamespaceAborts) {
  EXPECT_DEATH(Build(32), "tenant wide I/O \\[0, 32\\) overruns namespace 0 "
                          "\\(16 pages\\)");
}

TEST_F(OpenLoopDeathTest, ZeroPagesAborts) {
  EXPECT_DEATH(Build(0), "tenant wide issues empty I/Os");
}

#endif  // DAREDEVIL_INVARIANTS

}  // namespace
}  // namespace daredevil
