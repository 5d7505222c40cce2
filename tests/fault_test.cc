// End-to-end NVMe error-path tests (ISSUE 5): a deterministic FaultPlan is
// attached to a scenario and each fault kind is driven through every stack
// kind. Each case must end in one of the two legal terminal states — the
// request completes with an error status, or the watchdog/retry machinery
// retries it to success — with no leaked pool slots, no stranded in-flight
// commands, and a clean LifecycleChecker.
//
// The matrix (8 fault kinds x 5 gate stacks = 40 cases) runs a short
// two-tenant scenario past its stop time so the system fully drains; the
// drain-time assertions are what catch slot leaks and lost completions.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/invariant.h"
#include "src/fault/fault_plan.h"
#include "src/nvme/device.h"
#include "src/sim/simulator.h"
#include "src/stack/request.h"
#include "src/workload/fio_job.h"
#include "src/workload/scenario.h"
#include "tests/json_keys.h"

namespace daredevil {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan unit tests: firing policy (window / budget / sticky / filters)
// and seeded determinism, independent of the device.
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, WindowGatesInjection) {
  FaultPlan plan;
  FaultSpec spec;
  spec.kind = FaultKind::kCqeMediaError;
  spec.window_start = 100;
  spec.window_end = 200;
  plan.Add(spec);
  plan.Reseed(1);
  EXPECT_EQ(plan.CqeStatus(50, 0, 0), IoStatus::kOk);
  EXPECT_EQ(plan.CqeStatus(150, 0, 0), IoStatus::kMediaError);
  EXPECT_EQ(plan.CqeStatus(199, 0, 0), IoStatus::kMediaError);
  EXPECT_EQ(plan.CqeStatus(200, 0, 0), IoStatus::kOk);
  EXPECT_EQ(plan.CqeStatus(250, 0, 0), IoStatus::kOk);
  EXPECT_EQ(plan.injections(FaultKind::kCqeMediaError), 2u);
  EXPECT_EQ(plan.total_injections(), 2u);
}

TEST(FaultPlanTest, MaxInjectionsBoundsBudget) {
  FaultPlan plan;
  FaultSpec spec;
  spec.kind = FaultKind::kCommandDrop;
  spec.max_injections = 3;
  plan.Add(spec);
  plan.Reseed(1);
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    fired += plan.DropCommand(i, 0) ? 1 : 0;
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(plan.injections(FaultKind::kCommandDrop), 3u);
}

TEST(FaultPlanTest, StickyFiresOnEveryMatchAfterFirstHit) {
  FaultPlan plan;
  FaultSpec spec;
  spec.kind = FaultKind::kFlashReadError;
  spec.probability = 0.3;
  spec.sticky = true;
  plan.Add(spec);
  plan.Reseed(99);
  bool seen_first = false;
  for (int i = 0; i < 200; ++i) {
    const bool fired = plan.FlashPageFails(i, 0, 0, /*is_write=*/false);
    if (seen_first) {
      // A sticky spec models a dead chip: once hit, every later match fails.
      EXPECT_TRUE(fired) << "sticky spec went quiet after first hit, i=" << i;
    }
    seen_first = seen_first || fired;
  }
  EXPECT_TRUE(seen_first);
}

TEST(FaultPlanTest, ZeroProbabilityNeverFires) {
  FaultPlan plan;
  FaultSpec spec;
  spec.kind = FaultKind::kIrqDrop;
  spec.probability = 0.0;
  spec.sticky = true;
  plan.Add(spec);
  plan.Reseed(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(plan.OnIrq(i, 0).drop);
  }
  EXPECT_EQ(plan.total_injections(), 0u);
}

TEST(FaultPlanTest, SameSeedSameFiringSequence) {
  auto run = [](uint64_t seed) {
    FaultPlan plan;
    FaultSpec spec;
    spec.kind = FaultKind::kCqeMediaError;
    spec.probability = 0.5;
    plan.Add(spec);
    plan.Reseed(seed);
    std::vector<bool> fired;
    for (int i = 0; i < 100; ++i) {
      fired.push_back(plan.CqeStatus(i, 0, 0) != IoStatus::kOk);
    }
    return fired;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(FaultPlanTest, ChannelChipFiltersMatch) {
  FaultPlan plan;
  FaultSpec spec;
  spec.kind = FaultKind::kFlashReadError;
  spec.channel = 2;
  spec.chip = 1;
  plan.Add(spec);
  plan.Reseed(1);
  EXPECT_FALSE(plan.FlashPageFails(0, 0, 0, false));
  EXPECT_FALSE(plan.FlashPageFails(0, 2, 0, false));
  EXPECT_FALSE(plan.FlashPageFails(0, 1, 2, false));
  EXPECT_TRUE(plan.FlashPageFails(0, 2, 1, false));
}

TEST(FaultPlanTest, ReadWriteFiltersMatchOpDirection) {
  FaultPlan plan;
  FaultSpec read_only;
  read_only.kind = FaultKind::kFlashReadError;
  read_only.writes = false;
  plan.Add(read_only);
  FaultSpec write_only;
  write_only.kind = FaultKind::kFlashProgramError;
  write_only.reads = false;
  plan.Add(write_only);
  plan.Reseed(1);
  EXPECT_TRUE(plan.FlashPageFails(0, 0, 0, /*is_write=*/false));
  EXPECT_TRUE(plan.FlashPageFails(0, 0, 0, /*is_write=*/true));
  EXPECT_EQ(plan.injections(FaultKind::kFlashReadError), 1u);
  EXPECT_EQ(plan.injections(FaultKind::kFlashProgramError), 1u);
}

TEST(FaultPlanTest, NsqFilterGatesCommandFaults) {
  FaultPlan plan;
  FaultSpec spec;
  spec.kind = FaultKind::kCommandDrop;
  spec.nsq = 3;
  plan.Add(spec);
  plan.Reseed(1);
  EXPECT_FALSE(plan.DropCommand(0, 0));
  EXPECT_TRUE(plan.DropCommand(0, 3));
}

TEST(FaultPlanTest, IrqFaultReturnsDelayFromSpec) {
  FaultPlan plan;
  FaultSpec spec;
  spec.kind = FaultKind::kIrqDelay;
  spec.delay = TickDuration{5 * kMicrosecond};
  plan.Add(spec);
  plan.Reseed(1);
  IrqFault f = plan.OnIrq(0, 0);
  EXPECT_FALSE(f.drop);
  EXPECT_EQ(f.delay, TickDuration{5 * kMicrosecond});
}

TEST(FaultPlanTest, DenseFaultPlanCoversEveryKind) {
  FaultPlan plan = MakeDenseFaultPlan(1.0);
  EXPECT_FALSE(plan.empty());
  plan.Reseed(1);
  // rate=1.0 fires on the first consultation of every full-rate hazard.
  EXPECT_TRUE(plan.FlashPageFails(0, 0, 0, false));
  EXPECT_TRUE(plan.FlashPageFails(0, 0, 0, true));
  EXPECT_GT(plan.FetchStall(0, 0).ticks(), 0);
  EXPECT_NE(plan.CqeStatus(0, 0, 0), IoStatus::kOk);
  EXPECT_GT(plan.total_injections(), 0u);
}

TEST(FaultPlanTest, FaultKindNamesAreStable) {
  EXPECT_STREQ(FaultKindName(FaultKind::kFlashReadError), "flash-read-error");
  EXPECT_STREQ(FaultKindName(FaultKind::kCommandDrop), "command-drop");
  EXPECT_STREQ(FaultKindName(FaultKind::kTornWrite), "torn-write");
  EXPECT_STREQ(FaultKindName(FaultKind::kCrash), "crash");
}

// Guards FaultKindName against going stale when a kind is appended: every
// value in [0, kNumFaultKinds) must map to a real, distinct name.
TEST(FaultPlanTest, EveryFaultKindHasAUniqueName) {
  std::set<std::string> names;
  for (int k = 0; k < kNumFaultKinds; ++k) {
    const char* name = FaultKindName(static_cast<FaultKind>(k));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "?") << "kind " << k << " missing from FaultKindName";
    EXPECT_TRUE(names.insert(name).second)
        << "kind " << k << " reuses name \"" << name << "\"";
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumFaultKinds));
  EXPECT_LE(kNumTransportFaultKinds, kNumFaultKinds);
}

// Sticky x budget: the budget is checked before the sticky latch, so a dead
// die with a bounded injection budget goes quiet after exactly
// max_injections fires even though the latch stays set.
TEST(FaultPlanTest, StickyRespectsInjectionBudget) {
  FaultPlan plan;
  FaultSpec spec;
  spec.kind = FaultKind::kFlashReadError;
  spec.probability = 1.0;
  spec.sticky = true;
  spec.max_injections = 3;
  plan.Add(spec);
  plan.Reseed(5);
  int fired = 0;
  for (int i = 0; i < 20; ++i) {
    fired += plan.FlashPageFails(i, 0, 0, /*is_write=*/false) ? 1 : 0;
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(plan.injections(FaultKind::kFlashReadError), 3u);
}

// A probabilistic sticky spec fires on every match between the first hit and
// budget exhaustion: no gaps once latched, nothing after the budget.
TEST(FaultPlanTest, StickyBudgetFiresContiguouslyOnceLatched) {
  FaultPlan plan;
  FaultSpec spec;
  spec.kind = FaultKind::kCommandDrop;
  spec.probability = 0.2;
  spec.sticky = true;
  spec.max_injections = 4;
  plan.Add(spec);
  plan.Reseed(11);
  int first_hit = -1;
  int last_hit = -1;
  int fired = 0;
  for (int i = 0; i < 400; ++i) {
    if (plan.DropCommand(i, 0)) {
      if (first_hit < 0) {
        first_hit = i;
      }
      last_hit = i;
      ++fired;
    }
  }
  ASSERT_GE(first_hit, 0) << "spec never latched: reseed the test";
  EXPECT_EQ(fired, 4);
  // Contiguous: the fires occupy exactly [first_hit, first_hit + 3].
  EXPECT_EQ(last_hit, first_hit + 3);
}

// The durability kinds ride the same firing machinery; dense plans cover
// them so soak-style sweeps exercise the write-cache hazards too.
TEST(FaultPlanTest, DenseFaultPlanCoversDurabilityKinds) {
  FaultPlan plan = MakeDenseFaultPlan(1.0);
  plan.Reseed(3);
  EXPECT_TRUE(plan.TornWrite(0, 0, 0));
  EXPECT_TRUE(plan.ReorderWrite(0, 0));
  EXPECT_TRUE(plan.IgnoreFlush(0, 0));
  EXPECT_EQ(plan.injections(FaultKind::kTornWrite), 1u);
  EXPECT_EQ(plan.injections(FaultKind::kWriteReorder), 1u);
  EXPECT_EQ(plan.injections(FaultKind::kFlushIgnore), 1u);
  // kCrash is harness-driven (Device::Crash picks the point); dense plans
  // must not smuggle one in as a consultable spec.
  EXPECT_EQ(plan.injections(FaultKind::kCrash), 0u);
}

// Durability consultations honor the same topology filters as their
// transport cousins: torn writes pin to a channel/chip, reorder and
// flush-ignore pin to a submission queue.
TEST(FaultPlanTest, DurabilityKindsHonorTopologyFilters) {
  FaultPlan plan;
  FaultSpec torn;
  torn.kind = FaultKind::kTornWrite;
  torn.channel = 1;
  torn.chip = 2;
  plan.Add(torn);
  FaultSpec reorder;
  reorder.kind = FaultKind::kWriteReorder;
  reorder.nsq = 3;
  plan.Add(reorder);
  FaultSpec ignore;
  ignore.kind = FaultKind::kFlushIgnore;
  ignore.nsq = 5;
  plan.Add(ignore);
  plan.Reseed(1);
  EXPECT_FALSE(plan.TornWrite(0, 0, 0));
  EXPECT_FALSE(plan.TornWrite(0, 2, 1));
  EXPECT_TRUE(plan.TornWrite(0, 1, 2));
  EXPECT_FALSE(plan.ReorderWrite(0, 0));
  EXPECT_TRUE(plan.ReorderWrite(0, 3));
  EXPECT_FALSE(plan.IgnoreFlush(0, 3));
  EXPECT_TRUE(plan.IgnoreFlush(0, 5));
}

// ---------------------------------------------------------------------------
// Device-level: empty-plan normalization and the four AbortCommand outcomes.
// ---------------------------------------------------------------------------

DeviceConfig SmallDeviceConfig() {
  DeviceConfig config;
  config.nr_nsq = 8;
  config.nr_ncq = 4;
  config.queue_depth = 16;
  config.namespace_pages = {4096, 4096};
  config.flash.erase_after_programs = 0;
  return config;
}

NvmeCommand MakeCmd(uint64_t cid, uint32_t pages = 1, bool write = false) {
  NvmeCommand cmd;
  cmd.cid = cid;
  cmd.nsid = 0;
  cmd.lba = Lba{0};
  cmd.pages = pages;
  cmd.is_write = write;
  return cmd;
}

class FaultDeviceTest : public ::testing::Test {
 protected:
  FaultDeviceTest() : device_(&sim_, SmallDeviceConfig()) {
    device_.SetIrqHandler([this](int ncq) { irqs_.push_back(ncq); });
  }

  // Steps the simulator in `step`-sized increments until `done` or deadline.
  template <typename Pred>
  bool RunUntilCondition(Pred done, Tick step, Tick deadline) {
    Tick t = sim_.now();
    while (!done() && t < deadline) {
      t += step;
      sim_.RunUntil(t);
    }
    return done();
  }

  Simulator sim_;
  Device device_;
  std::vector<int> irqs_;
};

TEST_F(FaultDeviceTest, EmptyPlanDetaches) {
  FaultPlan empty;
  device_.SetFaultPlan(&empty);
  EXPECT_EQ(device_.fault_plan(), nullptr);
  FaultPlan full;
  FaultSpec spec;
  spec.kind = FaultKind::kCqeMediaError;
  full.Add(spec);
  device_.SetFaultPlan(&full);
  EXPECT_EQ(device_.fault_plan(), &full);
  device_.SetFaultPlan(nullptr);
  EXPECT_EQ(device_.fault_plan(), nullptr);
}

TEST_F(FaultDeviceTest, AbortRemovesUnfetchedCommandFromQueue) {
  ASSERT_TRUE(device_.Enqueue(0, MakeCmd(1)));
  // Not doorbelled: the command sits in the NSQ ring.
  EXPECT_EQ(device_.AbortCommand(0, 1), Device::AbortOutcome::kRemovedFromQueue);
  // The slot is reclaimed; the queue keeps working.
  ASSERT_TRUE(device_.Enqueue(0, MakeCmd(2)));
  device_.RingDoorbell(0);
  sim_.RunUntilIdle();
  EXPECT_EQ(device_.commands_completed(), 1u);
  auto cqes = device_.DrainCompletions(0, 16);
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].cid, 2u);
  EXPECT_EQ(cqes[0].status, IoStatus::kOk);
}

TEST_F(FaultDeviceTest, AbortInFlashServiceSuppressesCompletion) {
  // A bulky write keeps the command in flash service long enough to abort.
  ASSERT_TRUE(device_.Enqueue(0, MakeCmd(1, /*pages=*/8, /*write=*/true)));
  device_.RingDoorbell(0);
  ASSERT_TRUE(RunUntilCondition([&] { return device_.commands_fetched() == 1; },
                                kMicrosecond, 5 * kMillisecond));
  ASSERT_EQ(device_.commands_completed(), 0u);
  EXPECT_EQ(device_.AbortCommand(0, 1), Device::AbortOutcome::kAbortedInFlight);
  sim_.RunUntilIdle();
  EXPECT_EQ(device_.commands_completed(), 0u);
  EXPECT_EQ(device_.commands_aborted(), 1u);
  EXPECT_TRUE(device_.DrainCompletions(0, 16).empty());
  // The NCQ's in-flight reservation was reclaimed: new work still completes.
  ASSERT_TRUE(device_.Enqueue(0, MakeCmd(2)));
  device_.RingDoorbell(0);
  sim_.RunUntilIdle();
  EXPECT_EQ(device_.commands_completed(), 1u);
}

TEST_F(FaultDeviceTest, AbortFindsCommandInRecycledSlotByCid) {
  // cid 1 completes and frees its in-flight slot; cid 2, a bulky write,
  // takes that same slot (the most recently freed one is reused first).
  ASSERT_TRUE(device_.Enqueue(0, MakeCmd(1)));
  device_.RingDoorbell(0);
  sim_.RunUntilIdle();
  ASSERT_EQ(device_.commands_completed(), 1u);
  ASSERT_TRUE(device_.Enqueue(0, MakeCmd(2, /*pages=*/8, /*write=*/true)));
  device_.RingDoorbell(0);
  ASSERT_TRUE(RunUntilCondition([&] { return device_.commands_fetched() == 2; },
                                kMicrosecond, 5 * kMillisecond));
  ASSERT_EQ(device_.commands_completed(), 1u);
  // The earlier command is found nowhere (not queued, not in flight, not
  // dropped): the abort falls through to the completion-post tombstone.
  EXPECT_EQ(device_.AbortCommand(0, 1),
            Device::AbortOutcome::kAbortedAtCompletion);
  EXPECT_EQ(device_.AbortCommand(0, 2), Device::AbortOutcome::kAbortedInFlight);
  sim_.RunUntilIdle();
  EXPECT_EQ(device_.commands_completed(), 1u);
  EXPECT_EQ(device_.commands_aborted(), 2u);
  // Only cid 1's CQE was ever posted.
  const std::vector<NvmeCompletion> cqes = device_.DrainCompletions(0, 16);
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].cid, 1u);
}

TEST_F(FaultDeviceTest, AbortInCompletionPostGapConsumesTombstone) {
  ASSERT_TRUE(device_.Enqueue(0, MakeCmd(1, /*pages=*/4, /*write=*/true)));
  device_.RingDoorbell(0);
  // The gap between the last flash page and the CQE post is
  // config.completion_post (200ns) wide; 100ns steps always land in it.
  const bool caught = RunUntilCondition(
      [&] {
        return device_.commands_fetched() == 1 && device_.inflight_pages() == 0 &&
               device_.commands_completed() == 0;
      },
      100, 5 * kMillisecond);
  ASSERT_TRUE(caught) << "never observed the completion-post gap";
  EXPECT_EQ(device_.AbortCommand(0, 1),
            Device::AbortOutcome::kAbortedAtCompletion);
  sim_.RunUntilIdle();
  EXPECT_EQ(device_.commands_completed(), 0u);
  EXPECT_EQ(device_.commands_aborted(), 1u);
  EXPECT_TRUE(device_.DrainCompletions(0, 16).empty());
}

TEST_F(FaultDeviceTest, AbortReclaimsFaultDroppedCommand) {
  FaultPlan plan;
  FaultSpec spec;
  spec.kind = FaultKind::kCommandDrop;
  plan.Add(spec);
  plan.Reseed(1);
  device_.SetFaultPlan(&plan);
  ASSERT_TRUE(device_.Enqueue(0, MakeCmd(1)));
  device_.RingDoorbell(0);
  sim_.RunUntilIdle();
  EXPECT_EQ(device_.commands_dropped(), 1u);
  EXPECT_EQ(device_.commands_completed(), 0u);
  EXPECT_EQ(device_.AbortCommand(0, 1),
            Device::AbortOutcome::kReclaimedDropped);
  EXPECT_EQ(device_.commands_aborted(), 1u);
  // Reclaim is exactly-once: the device keeps serving after the abort.
  device_.SetFaultPlan(nullptr);
  ASSERT_TRUE(device_.Enqueue(0, MakeCmd(2)));
  device_.RingDoorbell(0);
  sim_.RunUntilIdle();
  EXPECT_EQ(device_.commands_completed(), 1u);
}

// ---------------------------------------------------------------------------
// LifecycleChecker abort transitions (the watchdog's bookkeeping contract).
// ---------------------------------------------------------------------------

TEST(LifecycleAbortTest, AbortRemovesInFlightId) {
  LifecycleChecker checker;
  Request rq;
  rq.id = 7;
  rq.t.issue = 100;
  rq.t.submit = 120;
  ASSERT_TRUE(checker.OnSubmit(rq, 120));
  EXPECT_EQ(checker.in_flight(), 1u);
  EXPECT_TRUE(checker.OnAbort(rq, 500));
  EXPECT_EQ(checker.in_flight(), 0u);
  EXPECT_EQ(checker.violations(), 0u);
  // A retry legally re-enters the in-flight set under the same id.
  EXPECT_TRUE(checker.OnSubmit(rq, 600));
  EXPECT_EQ(checker.in_flight(), 1u);
}

TEST(LifecycleAbortTest, DoubleAbortIsViolation) {
  LifecycleChecker checker;
  Request rq;
  rq.id = 7;
  rq.t.issue = 100;
  rq.t.submit = 120;
  ASSERT_TRUE(checker.OnSubmit(rq, 120));
  ASSERT_TRUE(checker.OnAbort(rq, 500));
  EXPECT_FALSE(checker.OnAbort(rq, 501));
  EXPECT_EQ(checker.violations(), 1u);
}

// ---------------------------------------------------------------------------
// The fault x stack matrix: every fault kind through every gate stack.
// ---------------------------------------------------------------------------

// What each kind is expected to produce beyond the universal clean-drain
// contract (assertions are per-kind because e.g. a fetch stall produces no
// errors at all, while a command drop must produce timeouts and aborts).
struct KindProfile {
  FaultSpec spec;
  bool expect_error_cqes = false;  // stack sees completions != kOk
  bool expect_timeouts = false;    // watchdog must fire
};

KindProfile ProfileFor(FaultKind kind) {
  KindProfile p;
  p.spec.kind = kind;
  switch (kind) {
    case FaultKind::kFlashReadError:
      p.spec.probability = 0.25;
      p.spec.writes = false;
      p.expect_error_cqes = true;
      break;
    case FaultKind::kFlashProgramError:
      // Consulted per page; T-tenant writes carry 32 pages each, so keep the
      // per-page rate low or every write command errors.
      p.spec.probability = 0.02;
      p.spec.reads = false;
      p.expect_error_cqes = true;
      break;
    case FaultKind::kFetchStall:
      p.spec.probability = 0.5;
      p.spec.delay = TickDuration{50 * kMicrosecond};
      break;
    case FaultKind::kCqeMediaError:
      p.spec.probability = 0.2;
      p.expect_error_cqes = true;
      break;
    case FaultKind::kCqeNamespaceNotReady:
      p.spec.probability = 0.2;
      p.expect_error_cqes = true;
      break;
    case FaultKind::kIrqDrop:
      p.spec.probability = 0.2;
      break;
    case FaultKind::kIrqDelay:
      p.spec.probability = 0.3;
      p.spec.delay = TickDuration{300 * kMicrosecond};
      break;
    case FaultKind::kCommandDrop:
      p.spec.probability = 0.1;
      p.expect_timeouts = true;
      break;
    case FaultKind::kTornWrite:
    case FaultKind::kWriteReorder:
    case FaultKind::kFlushIgnore:
    case FaultKind::kCrash:
      // Durability kinds never enter this matrix (see the instantiation pin);
      // crash_matrix_test.cc drives them against flush/FUA-issuing apps.
      break;
  }
  return p;
}

// Collected terminal state of a drained fault scenario.
struct FaultRun {
  uint64_t injections = 0;
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t errored = 0;
  int inflight = 0;
  uint64_t stack_submitted = 0;
  uint64_t stack_completed = 0;
  uint64_t error_completions = 0;
  uint64_t retries = 0;
  uint64_t aborts = 0;
  uint64_t timeouts = 0;
  uint64_t failed = 0;
  uint64_t recovered = 0;
  uint64_t lifecycle_violations = 0;
  size_t lifecycle_in_flight = 0;
  uint64_t irqs_dropped = 0;
  uint64_t irqs_delayed = 0;
  uint64_t commands_dropped = 0;
  Tick injected_stall_ns = 0;
  uint64_t tenant_retries = 0;
  uint64_t tenant_aborts = 0;
  uint64_t tenant_timeouts = 0;
  uint64_t tenant_errors = 0;
};

// Runs `specs` against `stack_kind` with `fault` injected, stops issue at
// 10ms, then drains until 80ms (several watchdog timeout+retry rounds past
// the last possible issue) and snapshots every conservation counter.
FaultRun RunFaultScenario(StackKind stack_kind, const FaultSpec& fault,
                          std::vector<FioJobSpec> specs, uint64_t seed = 7) {
  ScenarioConfig config = MakeSvmConfig(2);
  config.stack = stack_kind;
  config.seed = seed;
  config.warmup = 1 * kMillisecond;
  config.duration = 9 * kMillisecond;
  config.faults.Add(fault);
  config.fault_recovery.timeout = TickDuration{5 * kMillisecond};
  config.fault_recovery.max_retries = 3;
  config.fault_recovery.backoff = TickDuration{100 * kMicrosecond};
  config.fault_recovery.backoff_cap = TickDuration{1 * kMillisecond};

  for (auto& spec : specs) {
    spec.stop_time = 10 * kMillisecond;
  }
  config.jobs = std::move(specs);
  ScenarioEnv env(config);
  env.Start();
  // Time-bounded drain (not RunUntilIdle: some stacks keep periodic timers
  // armed). 80ms covers the worst retry chain: 4 attempts x (5ms timeout +
  // recovery poll) + backoffs after the last issue at 10ms.
  env.sim().RunUntil(80 * kMillisecond);

  FaultRun r;
  FaultPlan* plan = env.fault_plan();
  r.injections = plan != nullptr ? plan->total_injections() : 0;
  for (const auto& job : env.jobs()) {
    r.issued += job->total_issued();
    r.completed += job->total_completed();
    r.errored += job->total_errored();
    r.inflight += job->inflight();
  }
  StorageStack& stack = env.stack();
  r.stack_submitted = stack.requests_submitted();
  r.stack_completed = stack.requests_completed();
  r.error_completions = stack.error_completions();
  r.retries = stack.fault_retries();
  r.aborts = stack.aborts();
  r.timeouts = stack.timeouts();
  r.failed = stack.failed_requests();
  r.recovered = stack.watchdog_recovered();
  r.lifecycle_violations = stack.lifecycle().violations();
  r.lifecycle_in_flight = stack.lifecycle().in_flight();
  r.irqs_dropped = env.device().irqs_dropped();
  r.irqs_delayed = env.device().irqs_delayed();
  r.commands_dropped = env.device().commands_dropped();
  r.injected_stall_ns = env.device().injected_stall_ns().ticks();
  for (const auto& [tid, es] : stack.tenant_errors()) {
    r.tenant_retries += es.retries;
    r.tenant_aborts += es.aborts;
    r.tenant_timeouts += es.timeouts;
    r.tenant_errors += es.errors;
  }
  return r;
}

std::vector<FioJobSpec> TwoTenantMix() {
  // One latency read tenant + one throughput write tenant so both the read
  // and the write flash hazards have traffic to bite.
  return {LTenantSpec(0), TTenantSpec(0)};
}

// Universal terminal-state contract: every issued request was delivered
// exactly once (ok or error), nothing leaked from the request pools, the
// stack's attempt accounting balances, and the lifecycle verifier is clean.
void ExpectCleanDrain(const FaultRun& r) {
  EXPECT_GT(r.issued, 0u);
  EXPECT_EQ(r.issued, r.completed) << "requests lost or duplicated";
  EXPECT_EQ(r.inflight, 0) << "leaked request-pool slots";
  // Attempt-level conservation: every enqueued attempt either produced a
  // delivered CQE or was watchdog-aborted.
  EXPECT_EQ(r.stack_submitted, r.stack_completed + r.aborts);
  EXPECT_EQ(r.lifecycle_violations, 0u);
  EXPECT_EQ(r.lifecycle_in_flight, 0u);
  // Per-tenant accounting mirrors the global counters.
  EXPECT_EQ(r.tenant_retries, r.retries);
  EXPECT_EQ(r.tenant_aborts, r.aborts);
  EXPECT_EQ(r.tenant_timeouts, r.timeouts);
  EXPECT_EQ(r.tenant_errors, r.errored)
      << "tenant-visible errors != workload errored completions";
}

class FaultMatrixTest
    : public ::testing::TestWithParam<std::tuple<int, StackKind>> {};

TEST_P(FaultMatrixTest, DrainsCleanUnderFault) {
  const FaultKind kind = static_cast<FaultKind>(std::get<0>(GetParam()));
  const StackKind stack = std::get<1>(GetParam());
  const KindProfile profile = ProfileFor(kind);

  const FaultRun r = RunFaultScenario(stack, profile.spec, TwoTenantMix());

  ExpectCleanDrain(r);
  EXPECT_GT(r.injections, 0u) << "fault kind never fired: tune the spec";
  if (profile.expect_error_cqes) {
    EXPECT_GT(r.error_completions, 0u);
    // Error CQEs must trigger the retry path (first attempts always have
    // retry budget left under max_retries=3).
    EXPECT_GT(r.retries, 0u);
  }
  if (profile.expect_timeouts) {
    EXPECT_GT(r.timeouts, 0u);
    EXPECT_GT(r.aborts, 0u);
  }
  switch (kind) {
    case FaultKind::kFetchStall:
      EXPECT_GT(r.injected_stall_ns, 0);
      break;
    case FaultKind::kIrqDrop:
      EXPECT_GT(r.irqs_dropped, 0u);
      break;
    case FaultKind::kIrqDelay:
      EXPECT_GT(r.irqs_delayed, 0u);
      break;
    case FaultKind::kCommandDrop:
      EXPECT_GT(r.commands_dropped, 0u);
      break;
    default:
      break;
  }
}

std::string MatrixCaseName(
    const ::testing::TestParamInfo<std::tuple<int, StackKind>>& info) {
  std::string name = FaultKindName(static_cast<FaultKind>(std::get<0>(info.param)));
  name += "_";
  name += StackKindName(std::get<1>(info.param));
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

// Transport kinds only: durability kinds (torn-write fires, but flush-ignore
// needs FLUSH traffic and crash is harness-driven) get their own coverage in
// crash_matrix_test.cc against real flush/FUA-issuing applications.
INSTANTIATE_TEST_SUITE_P(
    AllKindsAllStacks, FaultMatrixTest,
    ::testing::Combine(::testing::Range(0, kNumTransportFaultKinds),
                       ::testing::Values(StackKind::kVanilla,
                                         StackKind::kStaticSplit,
                                         StackKind::kBlkSwitch,
                                         StackKind::kDareBase,
                                         StackKind::kDareFull)),
    MatrixCaseName);

// ---------------------------------------------------------------------------
// Targeted end-to-end recovery scenarios (exact-arithmetic checks the
// probabilistic matrix cannot make).
// ---------------------------------------------------------------------------

// A bounded error burst: QD1 reader against a media-error spec with
// probability 1 and a budget of 5 injections. Attempt algebra (max_retries=3):
//   rq1: 4 erroring attempts (3 retries) -> retries exhausted -> delivered
//        with kMediaError                                  [injections 1-4]
//   rq2: 1 erroring attempt (1 retry) -> retry succeeds    [injection 5]
//   rq3+: clean.
TEST(FaultRecoveryTest, RetriesExhaustThenSucceedExactCounts) {
  FaultSpec spec;
  spec.kind = FaultKind::kCqeMediaError;
  spec.probability = 1.0;
  spec.max_injections = 5;
  const FaultRun r =
      RunFaultScenario(StackKind::kVanilla, spec, {LTenantSpec(0)});
  ExpectCleanDrain(r);
  EXPECT_EQ(r.injections, 5u);
  EXPECT_EQ(r.error_completions, 5u);
  EXPECT_EQ(r.retries, 4u);    // 3 for rq1 + 1 for rq2
  EXPECT_EQ(r.errored, 1u);    // only rq1 fails through to the tenant
  EXPECT_EQ(r.timeouts, 0u);
  EXPECT_EQ(r.aborts, 0u);
}

// A sticky full-rate read fault (dead die everywhere): every read burns its
// whole retry budget and is delivered with an error; conservation must hold
// even when literally every request fails.
TEST(FaultRecoveryTest, AllReadsFailWhenFaultIsSticky) {
  FaultSpec spec;
  spec.kind = FaultKind::kFlashReadError;
  spec.probability = 1.0;
  spec.sticky = true;
  spec.writes = false;
  const FaultRun r =
      RunFaultScenario(StackKind::kDareFull, spec, {LTenantSpec(0)});
  ExpectCleanDrain(r);
  EXPECT_EQ(r.errored, r.issued);
  EXPECT_EQ(r.retries, 3 * r.issued);
  EXPECT_EQ(r.error_completions, 4 * r.issued);
}

// Every command is dropped at fetch: only the watchdog can recover, and with
// drops sticky at rate 1 every request exhausts its retries and fails with
// kTimedOut. Exercises abort -> NSQ-slot reclaim -> retry on all stacks'
// common path.
TEST(FaultRecoveryTest, StickyCommandDropFailsEverythingViaWatchdog) {
  FaultSpec spec;
  spec.kind = FaultKind::kCommandDrop;
  spec.probability = 1.0;
  spec.sticky = true;
  const FaultRun r =
      RunFaultScenario(StackKind::kBlkSwitch, spec, {LTenantSpec(0)});
  ExpectCleanDrain(r);
  EXPECT_EQ(r.errored, r.issued);
  EXPECT_EQ(r.failed, r.issued);          // all fail as kTimedOut
  EXPECT_EQ(r.aborts, 4 * r.issued);      // every attempt watchdog-aborted
  EXPECT_EQ(r.timeouts, 4 * r.issued);
  EXPECT_EQ(r.retries, 3 * r.issued);
}

// Dropped IRQs strand posted CQEs; the watchdog's recovery poll must find
// them without aborting (the command DID complete - only the doorbell was
// lost). With per-vector drops at rate 1 in a window, recovered > 0.
TEST(FaultRecoveryTest, WatchdogRecoversStrandedCqesAfterIrqDrop) {
  FaultSpec spec;
  spec.kind = FaultKind::kIrqDrop;
  spec.probability = 1.0;
  // Window-bound the outage so the run also sees healthy IRQs.
  spec.window_start = 2 * kMillisecond;
  spec.window_end = 4 * kMillisecond;
  const FaultRun r =
      RunFaultScenario(StackKind::kVanilla, spec, {LTenantSpec(0)});
  ExpectCleanDrain(r);
  EXPECT_GT(r.irqs_dropped, 0u);
  EXPECT_GT(r.recovered, 0u);
  // Recovered completions are not errors: nothing fails through.
  EXPECT_EQ(r.failed, 0u);
}

// The empty-plan inertness contract at stack level: attaching an empty plan
// must leave the watchdog disarmed (the fingerprint gate relies on it).
TEST(FaultRecoveryTest, EmptyPlanLeavesWatchdogDisarmed) {
  ScenarioConfig config = MakeSvmConfig(2);
  config.stack = StackKind::kVanilla;
  ScenarioEnv env(config);  // config.faults is empty
  EXPECT_EQ(env.fault_plan(), nullptr);
  EXPECT_FALSE(env.stack().watchdog_enabled());

  FaultPlan empty;
  env.stack().SetFaultPlan(&empty);
  EXPECT_FALSE(env.stack().watchdog_enabled());
  EXPECT_EQ(env.device().fault_plan(), nullptr);
}

// RunScenario surfaces the error accounting in ScenarioResult and its JSON
// "errors" section - and only for fault runs (satellite 4).
TEST(FaultRecoveryTest, ScenarioResultCarriesErrorAccounting) {
  ScenarioConfig config = MakeSvmConfig(2);
  config.stack = StackKind::kVanilla;
  config.warmup = 1 * kMillisecond;
  config.duration = 9 * kMillisecond;
  AddLTenants(config, 1);
  FaultSpec spec;
  spec.kind = FaultKind::kCqeMediaError;
  spec.probability = 0.3;
  config.faults.Add(spec);

  const ScenarioResult with_faults = RunScenario(config);
  EXPECT_TRUE(with_faults.faults_attached);
  EXPECT_GT(with_faults.fault_injections(), 0u);
  EXPECT_GT(with_faults.fault_retries(), 0u);
  EXPECT_FALSE(with_faults.tenant_errors.empty());
  // The section holds only what "metrics" does not: the fault totals are
  // its device.faults.* / stack.faults.* gauges.
  const std::string json = with_faults.ToJson();
  const size_t errors = json.find("\"errors\":{");
  ASSERT_NE(errors, std::string::npos);
  EXPECT_EQ(ObjectKeys(json, json.find('{', errors)),
            (std::vector<std::string>{"errored_completions", "tenants"}));
  // The fingerprinted projection must NOT contain the errors section.
  EXPECT_EQ(with_faults.ToJson(/*include_observability=*/false).find("\"errors\""),
            std::string::npos);

  ScenarioConfig clean = MakeSvmConfig(2);
  clean.stack = StackKind::kVanilla;
  clean.warmup = 1 * kMillisecond;
  clean.duration = 9 * kMillisecond;
  AddLTenants(clean, 1);
  const ScenarioResult without = RunScenario(clean);
  EXPECT_FALSE(without.faults_attached);
  EXPECT_EQ(without.ToJson().find("\"errors\""), std::string::npos);
}

}  // namespace
}  // namespace daredevil
