// Lifecycle-verifier tests: deliberately corrupt request timelines and assert
// the LifecycleChecker rejects each corruption with a useful message, plus
// death tests for the DD_CHECK macros themselves.
#include <gtest/gtest.h>

#include <string>

#include "src/core/invariant.h"
#include "src/stack/request.h"
#include "src/workload/scenario.h"

namespace daredevil {
namespace {

// A request with a fully consistent timeline completing at tick 1000.
Request GoodRequest(uint64_t id = 7) {
  Request rq;
  rq.id = id;
  rq.routed_nsq = 3;
  rq.t.issue = 100;
  rq.t.submit = 120;
  rq.t.nsq_enqueue = 140;
  rq.t.doorbell = 150;
  rq.t.fetch_start = 200;
  rq.t.fetch = 260;
  rq.t.flash_start = 300;
  rq.t.flash_end = 700;
  rq.t.cqe_post = 750;
  rq.t.drain = 800;
  rq.t.complete = 900;
  return rq;
}

TEST(LifecycleCheckerTest, AcceptsConsistentLifecycle) {
  LifecycleChecker checker;
  Request rq = GoodRequest();
  EXPECT_TRUE(checker.OnSubmit(rq, 120));
  EXPECT_EQ(checker.in_flight(), 1u);
  EXPECT_TRUE(checker.OnComplete(rq, 1000, /*cqe_sqid=*/3, /*drained_ncq=*/1,
                                 /*bound_ncq=*/1));
  EXPECT_EQ(checker.in_flight(), 0u);
  EXPECT_EQ(checker.violations(), 0u);
}

TEST(LifecycleCheckerTest, RejectsStageRegression) {
  LifecycleChecker checker;
  Request rq = GoodRequest();
  rq.t.flash_start = rq.t.fetch - 10;  // device started before fetching
  EXPECT_FALSE(checker.CheckStageChain(rq, 1000));
  EXPECT_EQ(checker.violations(), 1u);
  EXPECT_NE(checker.last_violation().find("stage regression"),
            std::string::npos);
  EXPECT_NE(checker.last_violation().find("flash_start"), std::string::npos);
}

TEST(LifecycleCheckerTest, SkipsUnreachedStages) {
  // A request that never saw the device (e.g. a split parent) has only
  // host-side stamps; zeros in the middle of the chain are not regressions.
  LifecycleChecker checker;
  Request rq;
  rq.id = 9;
  rq.t.issue = 100;
  rq.t.submit = 110;
  rq.t.complete = 500;
  EXPECT_TRUE(checker.CheckStageChain(rq, 500));
}

TEST(LifecycleCheckerTest, RejectsFutureStamp) {
  LifecycleChecker checker;
  Request rq = GoodRequest();
  EXPECT_FALSE(checker.CheckStageChain(rq, rq.t.complete - 1));
  EXPECT_NE(checker.last_violation().find("future stage stamp"),
            std::string::npos);
}

TEST(LifecycleCheckerTest, RejectsDoubleCompletion) {
  LifecycleChecker checker;
  Request rq = GoodRequest();
  ASSERT_TRUE(checker.OnSubmit(rq, 120));
  ASSERT_TRUE(checker.OnComplete(rq, 1000, 3, 1, 1));
  EXPECT_FALSE(checker.OnComplete(rq, 1001, 3, 1, 1));
  EXPECT_NE(checker.last_violation().find("double completion"),
            std::string::npos);
}

TEST(LifecycleCheckerTest, RejectsCompletionOfUnknownRequest) {
  LifecycleChecker checker;
  Request rq = GoodRequest();
  EXPECT_FALSE(checker.OnComplete(rq, 1000, 3, 1, 1));
  EXPECT_EQ(checker.violations(), 1u);
}

TEST(LifecycleCheckerTest, RejectsResubmission) {
  LifecycleChecker checker;
  Request rq = GoodRequest();
  ASSERT_TRUE(checker.OnSubmit(rq, 120));
  EXPECT_FALSE(checker.OnSubmit(rq, 130));
  EXPECT_NE(checker.last_violation().find("re-submission"), std::string::npos);
  EXPECT_EQ(checker.in_flight(), 1u);
}

TEST(LifecycleCheckerTest, RejectsWrongRoutedNsq) {
  LifecycleChecker checker;
  Request rq = GoodRequest();
  ASSERT_TRUE(checker.OnSubmit(rq, 120));
  // CQE claims it was fetched from NSQ 5, but the stack routed it to NSQ 3.
  EXPECT_FALSE(checker.OnComplete(rq, 1000, /*cqe_sqid=*/5, 1, 1));
  EXPECT_NE(checker.last_violation().find("routed to NSQ 3"),
            std::string::npos);
}

TEST(LifecycleCheckerTest, RejectsWrongCompletionQueue) {
  LifecycleChecker checker;
  Request rq = GoodRequest();
  ASSERT_TRUE(checker.OnSubmit(rq, 120));
  // Drained from NCQ 2 although NSQ 3 is statically bound to NCQ 1.
  EXPECT_FALSE(checker.OnComplete(rq, 1000, 3, /*drained_ncq=*/2,
                                  /*bound_ncq=*/1));
  EXPECT_NE(checker.last_violation().find("drained from NCQ 2"),
            std::string::npos);
}

TEST(LifecycleCheckerTest, RejectsDoorbellRegression) {
  LifecycleChecker checker;
  EXPECT_TRUE(checker.OnDoorbell(0, 5));
  EXPECT_TRUE(checker.OnDoorbell(0, 5));  // equal tails are fine (batching)
  EXPECT_TRUE(checker.OnDoorbell(1, 2));  // independent per-NSQ tails
  EXPECT_FALSE(checker.OnDoorbell(0, 3));
  EXPECT_NE(checker.last_violation().find("doorbell regression"),
            std::string::npos);
}

TEST(LifecycleCheckerTest, ResetClearsState) {
  LifecycleChecker checker;
  Request rq = GoodRequest();
  ASSERT_TRUE(checker.OnSubmit(rq, 120));
  ASSERT_FALSE(checker.OnSubmit(rq, 130));
  checker.Reset();
  EXPECT_EQ(checker.in_flight(), 0u);
  EXPECT_EQ(checker.violations(), 0u);
  EXPECT_TRUE(checker.last_violation().empty());
  EXPECT_TRUE(checker.OnSubmit(rq, 140));
}

// Live scenarios across all stacks exercise the wired-in checker on every
// request; the stack keeps a per-instance verifier reachable for inspection.
TEST(LifecycleCheckerTest, LiveScenarioRunsCleanAcrossStacks) {
  for (StackKind kind :
       {StackKind::kVanilla, StackKind::kBlkSwitch, StackKind::kDareFull}) {
    ScenarioConfig cfg = MakeSvmConfig(4);
    cfg.stack = kind;
    cfg.warmup = 2 * kMillisecond;
    cfg.duration = 10 * kMillisecond;
    AddLTenants(cfg, 2);
    AddTTenants(cfg, 2);
    const ScenarioResult r = RunScenario(cfg);
    EXPECT_GT(r.total_completed, 0u) << StackKindName(kind);
  }
}

#if DAREDEVIL_INVARIANTS

using InvariantDeathTest = ::testing::Test;

TEST(InvariantDeathTest, DdCheckAbortsWithContext) {
  const int rq_id = 42;
  EXPECT_DEATH(DD_CHECK(rq_id == 0) << "rq=" << rq_id << " tick=" << 99,
               "DD_CHECK failed: rq_id == 0.*rq=42 tick=99");
}

TEST(InvariantDeathTest, DdCheckLeReportsBothOperands) {
  const Tick a = 20;
  const Tick b = 10;
  EXPECT_DEATH(DD_CHECK_LE(a, b), "a=20 vs b=10");
}

TEST(InvariantDeathTest, DdFailAlwaysAborts) {
  EXPECT_DEATH(DD_FAIL() << "unreachable arbitration state",
               "unreachable arbitration state");
}

TEST(InvariantDeathTest, PassingCheckDoesNotAbort) {
  DD_CHECK(1 + 1 == 2) << "never printed";
  const Tick a = 5;
  DD_CHECK_LE(a, a);
  SUCCEED();
}

#endif  // DAREDEVIL_INVARIANTS

}  // namespace
}  // namespace daredevil
