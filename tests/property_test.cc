// Property-based tests: invariants checked over randomized inputs and
// parameterized sweeps of device geometries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "src/apps/kvstore.h"
#include "src/core/daredevil_stack.h"
#include "src/workload/scenario.h"

namespace daredevil {
namespace {

// ---------------------------------------------------------------------------
// Device geometry sweep: the full stack works for any (nsq, ncq, cores)
// shape, including NSQ:NCQ ratios above 1 (WS-M-like) and tiny devices.
// ---------------------------------------------------------------------------

using Geometry = std::tuple<int, int, int>;  // nsq, ncq, cores

class GeometrySweep : public ::testing::TestWithParam<Geometry> {};

TEST_P(GeometrySweep, DaredevilRunsAndSeparates) {
  const auto [nsq, ncq, cores] = GetParam();
  ScenarioConfig cfg = MakeSvmConfig(cores);
  cfg.stack = StackKind::kDareFull;
  cfg.device.nr_nsq = nsq;
  cfg.device.nr_ncq = ncq;
  cfg.warmup = 2 * kMillisecond;
  cfg.duration = 20 * kMillisecond;
  AddLTenants(cfg, 2);
  AddTTenants(cfg, 4);

  ScenarioEnv env(cfg);
  auto* dd = dynamic_cast<DaredevilStack*>(&env.stack());
  ASSERT_NE(dd, nullptr);

  // NQGroup division is an equal split of the NCQs, and every NSQ belongs to
  // exactly one group (via its bound NCQ).
  EXPECT_EQ(dd->nqreg().NcqsOfGroup(NqPrio::kHigh).size(),
            static_cast<size_t>(ncq / 2));
  EXPECT_EQ(dd->nqreg().NsqsOfGroup(NqPrio::kHigh).size() +
                dd->nqreg().NsqsOfGroup(NqPrio::kLow).size(),
            static_cast<size_t>(nsq));

  env.Start();
  env.sim().RunUntil(env.measure_end());

  // Traffic flowed and the groups never mixed.
  uint64_t total = 0;
  for (int q = 0; q < env.device().nr_nsq(); ++q) {
    total += env.device().nsq(q).submitted_rqs();
  }
  EXPECT_GT(total, 0u);
  uint64_t l_issued = 0;
  uint64_t all_issued = 0;
  for (const auto& job : env.jobs()) {
    all_issued += job->total_issued();
    if (job->spec().group == "L") {
      l_issued += job->total_issued();
    }
  }
  uint64_t high_submitted = 0;
  for (int q = 0; q < env.device().nr_nsq(); ++q) {
    if (dd->nqreg().GroupOfNsq(q) == NqPrio::kHigh) {
      high_submitted += env.device().nsq(q).submitted_rqs();
    }
  }
  EXPECT_GE(high_submitted, l_issued);
  EXPECT_LE(high_submitted, l_issued + (all_issued - l_issued) / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeometrySweep,
    ::testing::Values(Geometry{2, 2, 1}, Geometry{4, 2, 2}, Geometry{8, 8, 4},
                      Geometry{16, 4, 4}, Geometry{64, 64, 8},
                      Geometry{128, 24, 8}, Geometry{32, 2, 4}),
    [](const ::testing::TestParamInfo<Geometry>& info) {
      return std::to_string(std::get<0>(info.param)) + "nsq_" +
             std::to_string(std::get<1>(info.param)) + "ncq_" +
             std::to_string(std::get<2>(info.param)) + "cores";
    });

// ---------------------------------------------------------------------------
// nqreg properties under randomized stats.
// ---------------------------------------------------------------------------

struct NqRegEnv {
  Simulator sim;
  Machine machine;
  Device device;
  Blex blex;
  NqReg nqreg;

  NqRegEnv(int nsq, int ncq, const DaredevilConfig& config)
      : machine(&sim, Machine::Config{.num_cores = 4}),
        device(&sim,
               [&] {
                 DeviceConfig c;
                 c.nr_nsq = nsq;
                 c.nr_ncq = ncq;
                 return c;
               }()),
        blex(&device, 4),
        nqreg(&blex, config) {}
};

TEST(NqRegProperty, ScheduleAlwaysReturnsGroupMember) {
  Rng rng(100);
  NqRegEnv env(32, 8, DareFullConfig());
  for (int i = 0; i < 2000; ++i) {
    // Randomly perturb device stats so merits diverge.
    const int ncq = static_cast<int>(rng.NextBelow(8));
    env.device.ncq(ncq).AddInFlight(static_cast<int>(rng.NextBelow(5)));
    if (rng.NextBool(0.3)) {
      env.device.ncq(ncq).CountIrq();
    }
    const NqPrio prio = rng.NextBool(0.5) ? NqPrio::kHigh : NqPrio::kLow;
    const int m = rng.NextBool(0.2) ? env.nqreg.mru_budget() : 1;
    const int nsq = env.nqreg.Schedule(prio, m);
    ASSERT_GE(nsq, 0);
    ASSERT_LT(nsq, 32);
    EXPECT_EQ(env.nqreg.GroupOfNsq(nsq), prio);
  }
}

TEST(NqRegProperty, ResortCountMatchesMruArithmetic) {
  DaredevilConfig config = DareFullConfig();
  config.mru = 50;
  NqRegEnv env(8, 4, config);
  const uint64_t v0 = env.nqreg.GroupVersion(NqPrio::kHigh);
  // 500 single-decrement queries on one group: exactly 10 re-sorts.
  for (int i = 0; i < 500; ++i) {
    env.nqreg.Schedule(NqPrio::kHigh, 1);
  }
  EXPECT_EQ(env.nqreg.GroupVersion(NqPrio::kHigh), v0 + 10);
}

TEST(NqRegProperty, MeritsStayFiniteAndNonNegative) {
  Rng rng(7);
  NqRegEnv env(16, 8, DareFullConfig());
  for (int i = 0; i < 1000; ++i) {
    const int ncq = static_cast<int>(rng.NextBelow(8));
    env.device.ncq(ncq).AddInFlight(1);
    env.device.ncq(ncq).CountIrq();
    env.nqreg.Schedule(NqPrio::kHigh, env.nqreg.mru_budget());
    env.nqreg.Schedule(NqPrio::kLow, env.nqreg.mru_budget());
  }
  for (int q = 0; q < 8; ++q) {
    const double merit = env.nqreg.NcqMerit(q);
    EXPECT_GE(merit, 0.0);
    EXPECT_TRUE(std::isfinite(merit));
  }
  for (int q = 0; q < 16; ++q) {
    EXPECT_TRUE(std::isfinite(env.nqreg.NsqMerit(q)));
  }
}

TEST(NqRegProperty, SmoothingConvergesToSteadyState) {
  // For any alpha in (0.5, 1) and any start, repeated smoothing toward a
  // constant sample converges to that constant.
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const double alpha = 0.5 + 0.49 * rng.NextDouble() + 0.01;
    const double target = rng.NextDouble() * 1000.0;
    double merit = rng.NextDouble() * 1e6;
    for (int i = 0; i < 200; ++i) {
      merit = NqReg::Smooth(alpha, target, merit);
    }
    EXPECT_NEAR(merit, target, 1e-3) << "alpha=" << alpha;
  }
}

// ---------------------------------------------------------------------------
// Histogram fuzz: percentiles stay within quantization error of exact ranks
// for arbitrary distributions.
// ---------------------------------------------------------------------------

TEST(HistogramProperty, FuzzAgainstExactQuantiles) {
  Rng rng(2024);
  for (int trial = 0; trial < 8; ++trial) {
    Histogram h;
    std::vector<int64_t> values;
    const int n = 2000 + static_cast<int>(rng.NextBelow(3000));
    for (int i = 0; i < n; ++i) {
      // Mix of scales: heavy tails like latency data.
      int64_t v;
      if (rng.NextBool(0.05)) {
        v = static_cast<int64_t>(rng.NextBelow(1'000'000'000));
      } else if (rng.NextBool(0.3)) {
        v = static_cast<int64_t>(rng.NextBelow(1'000'000));
      } else {
        v = static_cast<int64_t>(rng.NextBelow(10'000));
      }
      h.Record(v);
      values.push_back(v);
    }
    std::sort(values.begin(), values.end());
    for (double p : {10.0, 50.0, 90.0, 99.0}) {
      const auto rank = static_cast<size_t>(
          p / 100.0 * static_cast<double>(values.size()));
      const auto exact =
          static_cast<double>(values[std::min(rank, values.size() - 1)]);
      const auto approx = static_cast<double>(h.Percentile(p));
      // Allow quantization error plus one rank of slack.
      EXPECT_NEAR(approx, exact, std::max(64.0, exact * 0.07))
          << "trial " << trial << " p" << p;
    }
  }
}

// ---------------------------------------------------------------------------
// Flash degradation injection: a failing (slow) chip must never break
// conservation, only latency.
// ---------------------------------------------------------------------------

TEST(FailureInjection, SlowFlashStillConserves) {
  ScenarioConfig cfg = MakeSvmConfig(2);
  cfg.stack = StackKind::kDareFull;
  cfg.device.nr_nsq = 8;
  cfg.device.nr_ncq = 8;
  // A pathologically slow device region: reads take 10ms.
  cfg.device.flash.page_read = 10 * kMillisecond;
  cfg.warmup = 2 * kMillisecond;
  cfg.duration = 60 * kMillisecond;
  AddLTenants(cfg, 2);
  AddTTenants(cfg, 2);
  const ScenarioResult r = RunScenario(cfg);
  EXPECT_GT(r.total_completed, 0u);
  EXPECT_LE(r.total_issued - r.total_completed, 2u + 2u * 32u);
}

TEST(FailureInjection, ZeroCapacityDeviceBufferStillProgresses) {
  // max_inflight_pages smaller than any T-request: T commands can never be
  // fetched, but 1-page L commands keep slipping through (no deadlock for
  // them), and nothing is lost.
  ScenarioConfig cfg = MakeSvmConfig(2);
  cfg.stack = StackKind::kVanilla;
  cfg.device.nr_nsq = 4;
  cfg.device.nr_ncq = 4;
  cfg.device.max_inflight_pages = 8;
  cfg.warmup = kMillisecond;
  cfg.duration = 30 * kMillisecond;
  AddLTenants(cfg, 2);
  const ScenarioResult r = RunScenario(cfg);
  EXPECT_GT(r.Find("L")->ios, 0u);
}

// ---------------------------------------------------------------------------
// Randomized fault plans: whatever faults a seeded generator throws at the
// stack, conservation must hold - per tenant, every issued request is
// delivered exactly once (ok or errored), and at the attempt level every
// enqueued command either completed or was watchdog-aborted.
// ---------------------------------------------------------------------------

TEST(FailureInjection, RandomFaultPlansPreserveConservation) {
  Rng master(0xfa01);
  const StackKind stacks[] = {StackKind::kVanilla, StackKind::kBlkSwitch,
                              StackKind::kDareFull};
  for (int trial = 0; trial < 9; ++trial) {
    ScenarioConfig cfg = MakeSvmConfig(2);
    cfg.stack = stacks[trial % 3];
    cfg.seed = 100 + trial;
    cfg.warmup = kMillisecond;
    cfg.duration = 9 * kMillisecond;
    cfg.fault_recovery.timeout = TickDuration{5 * kMillisecond};
    cfg.fault_recovery.backoff = TickDuration{100 * kMicrosecond};

    // Seed-derived plan: 1-4 random specs over random kinds, rates, windows
    // and stickiness. kFlashProgramError is consulted per page (T-tenants
    // write 32 pages), so cap its rate to keep some writes succeeding.
    const int nspecs = 1 + static_cast<int>(master.NextU64() % 4);
    for (int s = 0; s < nspecs; ++s) {
      FaultSpec spec;
      spec.kind = static_cast<FaultKind>(master.NextU64() % kNumFaultKinds);
      spec.probability = 0.05 + 0.35 * master.NextDouble();
      if (spec.kind == FaultKind::kFlashProgramError) {
        spec.probability = 0.01 + 0.02 * master.NextDouble();
      }
      spec.sticky = master.NextU64() % 8 == 0;
      if (master.NextU64() % 2 == 0) {
        spec.window_start = 2 * kMillisecond;
        spec.window_end = 7 * kMillisecond;
      }
      if (spec.kind == FaultKind::kFetchStall ||
          spec.kind == FaultKind::kIrqDelay) {
        spec.delay = TickDuration{static_cast<Tick>(
            10 * kMicrosecond + master.NextU64() % (100 * kMicrosecond))};
      }
      cfg.faults.Add(spec);
    }

    // Drained run: jobs stop issuing at 10ms; 80ms covers the worst
    // timeout+retry chain of anything issued before the stop.
    cfg.jobs = {LTenantSpec(0), TTenantSpec(0)};
    for (FioJobSpec& spec : cfg.jobs) {
      spec.stop_time = 10 * kMillisecond;
    }
    ScenarioEnv env(cfg);
    env.Start();
    env.sim().RunUntil(80 * kMillisecond);

    // Per-tenant conservation: issued == completed (errored is a subset of
    // completed: an errored request was still delivered), no pool leaks.
    for (const auto& job : env.jobs()) {
      EXPECT_EQ(job->total_issued(), job->total_completed())
          << "trial " << trial << " tenant " << job->spec().name;
      EXPECT_LE(job->total_errored(), job->total_completed());
      EXPECT_EQ(job->inflight(), 0)
          << "trial " << trial << " tenant " << job->spec().name;
    }
    // Attempt-level conservation and a clean lifecycle ledger.
    StorageStack& stack = env.stack();
    EXPECT_EQ(stack.requests_submitted(),
              stack.requests_completed() + stack.aborts())
        << "trial " << trial;
    EXPECT_EQ(stack.lifecycle().violations(), 0u) << "trial " << trial;
    EXPECT_EQ(stack.lifecycle().in_flight(), 0u) << "trial " << trial;
    // Tenant-visible error accounting matches the workload's view.
    uint64_t tenant_errors = 0;
    for (const auto& [id, es] : stack.tenant_errors()) {
      tenant_errors += es.errors;
    }
    uint64_t workload_errors = 0;
    for (const auto& job : env.jobs()) {
      workload_errors += job->total_errored();
    }
    EXPECT_EQ(tenant_errors, workload_errors) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Randomized crash points: whatever event a seeded generator crashes the
// machine at, KV recovery must reconstruct a store equal to the reference
// model restricted to acknowledged writes — acked keys are all serveable,
// and nothing the workload never wrote materializes.
// ---------------------------------------------------------------------------

TEST(FailureInjection, RandomCrashPointsRecoverAckedWrites) {
  Rng master(0xc5a5);
  const StackKind stacks[] = {StackKind::kVanilla, StackKind::kDareFull};
  for (int trial = 0; trial < 10; ++trial) {
    ScenarioConfig cfg = MakeSvmConfig(2);
    cfg.stack = stacks[trial % 2];
    cfg.seed = 5000 + trial;
    ScenarioEnv env(cfg);
    Tenant& tenant =
        env.AddAppTenant("kv", "APP", IoniceClass::kBestEffort, /*core=*/0);
    AppIoContext io(&env.machine(), &env.stack(), &tenant, /*nsid=*/0);
    KvStoreConfig kv_cfg;
    kv_cfg.memtable_entries = 8;  // checkpoints interleave with the puts
    KvStore store(&io, kv_cfg, Rng(cfg.seed));

    // Reference model: keys draw from a small space so overwrites happen.
    constexpr uint64_t kOps = 40;
    constexpr uint64_t kKeySpace = 24;
    uint64_t issued_ops = 0;
    bool all_done = false;
    std::set<uint64_t> issued;
    std::set<uint64_t> acked;
    Rng keys = master.Fork();
    std::function<void()> put_next = [&]() {
      if (issued_ops >= kOps) {
        all_done = true;
        return;
      }
      ++issued_ops;
      const uint64_t key = keys.NextU64() % kKeySpace;
      issued.insert(key);
      store.Put(key, [&, key]() {
        acked.insert(key);
        put_next();
      });
    };
    put_next();

    // Seed-derived crash point somewhere inside the schedule.
    const uint64_t crash_at = 1 + master.NextU64() % 3000;
    while (env.sim().events_processed() < crash_at) {
      if ((all_done && io.inflight() == 0) || !env.sim().Step()) {
        break;
      }
    }
    env.device().Crash();
    const KvRecoveryReport rep = store.Recover([&](uint64_t lba) {
      return env.device().PersistedAt(/*nsid=*/0, Lba{lba});
    });

    EXPECT_TRUE(rep.clean())
        << "trial " << trial << " crash_at " << crash_at
        << ": lost_acked=" << rep.lost_acked;
    for (uint64_t key : acked) {
      EXPECT_TRUE(store.Contains(key))
          << "trial " << trial << " crash_at " << crash_at << " key " << key;
    }
    // Nothing out of thin air: every serveable key was written, and keys
    // outside the workload's space never appear.
    for (uint64_t key = 0; key < kKeySpace; ++key) {
      if (store.Contains(key)) {
        EXPECT_TRUE(issued.count(key) != 0)
            << "trial " << trial << " phantom key " << key;
      }
    }
    for (uint64_t key = kKeySpace; key < kKeySpace + 8; ++key) {
      EXPECT_FALSE(store.Contains(key)) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace daredevil
