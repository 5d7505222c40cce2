// Integration and property tests: cross-stack invariants verified on live
// multi-tenant scenarios, including the paper's headline qualitative claims.
// Parameterized sweeps (TEST_P) run the invariants over stacks x pressures.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "src/core/daredevil_stack.h"
#include "src/workload/scenario.h"

namespace daredevil {
namespace {

ScenarioConfig BaseConfig(StackKind kind, int cores = 4) {
  ScenarioConfig cfg = MakeSvmConfig(cores);
  cfg.stack = kind;
  cfg.warmup = 5 * kMillisecond;
  cfg.duration = 40 * kMillisecond;
  return cfg;
}

// ---------------------------------------------------------------------------
// Property sweep: every stack x pressure combination obeys the core
// invariants (conservation, bounded in-flight, sane latency stats).
// ---------------------------------------------------------------------------

using SweepParam = std::tuple<StackKind, int>;

class StackPressureSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(StackPressureSweep, InvariantsHold) {
  const auto [kind, n_t] = GetParam();
  ScenarioConfig cfg = BaseConfig(kind);
  AddLTenants(cfg, 4);
  AddTTenants(cfg, n_t);
  const ScenarioResult r = RunScenario(cfg);

  // Conservation: closed loops never lose requests.
  EXPECT_LE(r.total_issued - r.total_completed, 4u + 32u * static_cast<uint64_t>(n_t));
  EXPECT_GE(r.requests_submitted(), r.requests_completed());
  EXPECT_EQ(r.commands_fetched() >= r.commands_completed(), true);

  // L-tenants always make progress (may be tiny under extreme HOL blocking).
  ASSERT_NE(r.Find("L"), nullptr);
  EXPECT_GT(r.Find("L")->ios, 0u);

  // Latency stats are internally consistent.
  const GroupStats* l = r.Find("L");
  EXPECT_LE(l->latency.min(), l->latency.P50());
  EXPECT_LE(l->latency.P50(), l->latency.P999());
  EXPECT_LE(l->latency.P999(), l->latency.max());
  EXPECT_GT(l->latency.Mean(), 0.0);

  // CPU utilization is a fraction.
  EXPECT_GE(r.cpu_util, 0.0);
  EXPECT_LE(r.cpu_util, 1.0);

  if (n_t > 0) {
    ASSERT_NE(r.Find("T"), nullptr);
    EXPECT_GT(r.ThroughputBps("T"), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStacks, StackPressureSweep,
    ::testing::Combine(::testing::Values(StackKind::kVanilla,
                                         StackKind::kStaticSplit,
                                         StackKind::kBlkSwitch,
                                         StackKind::kDareBase,
                                         StackKind::kDareSched,
                                         StackKind::kDareFull),
                       ::testing::Values(0, 4, 16)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      std::string name = std::string(StackKindName(std::get<0>(info.param))) +
                         "_" + std::to_string(std::get<1>(info.param)) + "T";
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Daredevil separation invariant under live traffic: no NSQ ever carries
// both low-priority (normal T) and high-priority (L/outlier) requests.
// ---------------------------------------------------------------------------

class DaredevilSeparationSweep : public ::testing::TestWithParam<int> {};

TEST_P(DaredevilSeparationSweep, GroupsNeverMix) {
  const int n_t = GetParam();
  ScenarioConfig cfg = BaseConfig(StackKind::kDareFull);
  AddLTenants(cfg, 4);
  AddTTenants(cfg, n_t);
  // Add outlier-heavy T-tenants to exercise the request-specific contexts.
  for (int i = 0; i < 2; ++i) {
    FioJobSpec spec = TTenantSpec(100 + i);
    spec.sync_prob = 0.3;
    cfg.jobs.push_back(spec);
  }

  ScenarioEnv env(cfg);
  auto* dd = dynamic_cast<DaredevilStack*>(&env.stack());
  ASSERT_NE(dd, nullptr);

  env.Start();
  env.sim().RunUntil(env.measure_end());

  // High-group NSQs must only have carried L-class traffic; every request an
  // L-tenant submitted must have gone to the high group. We verify via the
  // per-queue high/low traffic accounting below: an NSQ in the low group must
  // never have received sync/meta or L-tenant requests. Since requests are
  // recycled we check the queue-level invariant instead: all low-group NSQ
  // traffic came from T-tenants' normal requests, which is implied by the
  // combination of (a) Algorithm 1 and (b) this end-to-end check that T
  // tenants' normal request count equals the low group's submitted count.
  uint64_t low_submitted = 0;
  uint64_t high_submitted = 0;
  for (int q = 0; q < env.device().nr_nsq(); ++q) {
    if (dd->nqreg().GroupOfNsq(q) == NqPrio::kLow) {
      low_submitted += env.device().nsq(q).submitted_rqs();
    } else {
      high_submitted += env.device().nsq(q).submitted_rqs();
    }
  }
  uint64_t expected_high = 0;
  uint64_t expected_low = 0;
  for (const auto& job : env.jobs()) {
    if (job->spec().group == "L") {
      expected_high += job->total_issued();
    }
  }
  // All L-tenant requests landed in the high group (plus outliers from T).
  EXPECT_GE(high_submitted, expected_high);
  // And the low group carried only the remainder.
  uint64_t total_issued = 0;
  for (const auto& job : env.jobs()) {
    total_issued += job->total_issued();
  }
  expected_low = total_issued - expected_high;
  EXPECT_LE(low_submitted, expected_low);
}

INSTANTIATE_TEST_SUITE_P(Pressures, DaredevilSeparationSweep,
                         ::testing::Values(0, 4, 8, 16));

// ---------------------------------------------------------------------------
// Headline qualitative results (scaled-down Fig. 2 / Fig. 6 cells).
// ---------------------------------------------------------------------------

TEST(PaperClaims, InterferenceInflatesVanillaLatency) {
  // Fig. 2: w/ Interfere is much worse than w/o under pressure.
  ScenarioConfig with = BaseConfig(StackKind::kVanilla);
  with.used_nqs = 4;
  AddLTenants(with, 4);
  AddTTenants(with, 16);
  ScenarioConfig without = with;
  without.stack = StackKind::kStaticSplit;
  const ScenarioResult r_with = RunScenario(with);
  const ScenarioResult r_without = RunScenario(without);
  EXPECT_GT(r_with.AvgLatencyNs("L"), 3.0 * r_without.AvgLatencyNs("L"));
}

TEST(PaperClaims, DaredevilBeatsVanillaUnderPressure) {
  // Fig. 6: under high T-pressure Daredevil cuts L latency by a large factor
  // while keeping T throughput within ~30%.
  ScenarioConfig vanilla = BaseConfig(StackKind::kVanilla);
  AddLTenants(vanilla, 4);
  AddTTenants(vanilla, 16);
  ScenarioConfig dare = vanilla;
  dare.stack = StackKind::kDareFull;
  const ScenarioResult r_vanilla = RunScenario(vanilla);
  const ScenarioResult r_dare = RunScenario(dare);
  EXPECT_GT(r_vanilla.AvgLatencyNs("L"), 5.0 * r_dare.AvgLatencyNs("L"));
  EXPECT_GT(static_cast<double>(r_vanilla.P999Ns("L")),
            2.0 * static_cast<double>(r_dare.P999Ns("L")));
  EXPECT_GT(r_dare.ThroughputBps("T"), 0.70 * r_vanilla.ThroughputBps("T"));
  EXPECT_GT(r_dare.Iops("L"), 5.0 * r_vanilla.Iops("L"));
}

TEST(PaperClaims, DaredevilSlightlyWorseWithoutPressure) {
  // Fig. 6b low-pressure region: Daredevil pays a small cross-core/routing
  // cost when there is no interference to mitigate.
  ScenarioConfig vanilla = BaseConfig(StackKind::kVanilla);
  AddLTenants(vanilla, 4);
  ScenarioConfig dare = vanilla;
  dare.stack = StackKind::kDareFull;
  const ScenarioResult r_vanilla = RunScenario(vanilla);
  const ScenarioResult r_dare = RunScenario(dare);
  // Within a tight band: no more than ~30% worse, certainly not better by a
  // large margin.
  EXPECT_LT(r_dare.AvgLatencyNs("L"), 1.3 * r_vanilla.AvgLatencyNs("L"));
  EXPECT_GT(r_dare.AvgLatencyNs("L"), 0.8 * r_vanilla.AvgLatencyNs("L"));
}

TEST(PaperClaims, BlkSwitchGoodAtLowPressureCollapsesAtHigh) {
  ScenarioConfig low = BaseConfig(StackKind::kBlkSwitch);
  AddLTenants(low, 4);
  AddTTenants(low, 4);
  ScenarioConfig low_vanilla = low;
  low_vanilla.stack = StackKind::kVanilla;
  EXPECT_LT(RunScenario(low).AvgLatencyNs("L"),
            0.5 * RunScenario(low_vanilla).AvgLatencyNs("L"));

  ScenarioConfig high = BaseConfig(StackKind::kBlkSwitch);
  AddLTenants(high, 4);
  AddTTenants(high, 24);
  ScenarioConfig high_dare = high;
  high_dare.stack = StackKind::kDareFull;
  EXPECT_GT(RunScenario(high).AvgLatencyNs("L"),
            5.0 * RunScenario(high_dare).AvgLatencyNs("L"));
}

TEST(PaperClaims, MultiNamespaceInterferencePersistsForVanilla) {
  // Fig. 10: namespace-exclusive tenants still interfere in vanilla; not in
  // Daredevil.
  ScenarioConfig cfg = BaseConfig(StackKind::kVanilla);
  cfg.device.namespace_pages = {1 << 20, 1 << 20, 1 << 20, 1 << 20};
  AddLTenants(cfg, 2, /*nsid=*/0);
  for (uint32_t ns = 1; ns < 4; ++ns) {
    AddTTenants(cfg, 8, ns);
  }
  ScenarioConfig dare = cfg;
  dare.stack = StackKind::kDareFull;
  const ScenarioResult r_vanilla = RunScenario(cfg);
  const ScenarioResult r_dare = RunScenario(dare);
  EXPECT_GT(r_vanilla.AvgLatencyNs("L"), 5.0 * r_dare.AvgLatencyNs("L"));
}

TEST(PaperClaims, DaredevilConsistentAcrossCoreCounts) {
  // Fig. 9: Daredevil's tail latency stays in the same band for 2/4/8 cores.
  std::vector<double> tails;
  for (int cores : {2, 4, 8}) {
    ScenarioConfig cfg = BaseConfig(StackKind::kDareFull, cores);
    AddLTenants(cfg, 4);
    AddTTenants(cfg, 16);
    tails.push_back(static_cast<double>(RunScenario(cfg).P999Ns("L")));
  }
  const double lo = *std::min_element(tails.begin(), tails.end());
  const double hi = *std::max_element(tails.begin(), tails.end());
  EXPECT_LT(hi / lo, 3.0);
}

TEST(PaperClaims, CrossCoreOverheadsSmallShareOfLatency) {
  // §7.5: cross-core overheads are bounded (a few percent of total latency).
  ScenarioConfig cfg = BaseConfig(StackKind::kDareFull);
  AddLTenants(cfg, 4);
  AddTTenants(cfg, 8);
  const ScenarioResult r = RunScenario(cfg);
  if (r.requests_submitted() > 0) {
    const double lock_share =
        static_cast<double>(r.lock_wait_ns()) /
        (static_cast<double>(r.requests_submitted()) * r.AvgLatencyNs("L"));
    EXPECT_LT(lock_share, 0.05);
  }
}

// ---------------------------------------------------------------------------
// Namespace isolation: requests never touch pages outside their namespace.
// ---------------------------------------------------------------------------

TEST(NamespaceIsolation, LbaRangesRespected) {
  ScenarioConfig cfg = BaseConfig(StackKind::kDareFull);
  cfg.device.namespace_pages = {1000, 2000};
  ScenarioEnv env(cfg);
  // The FIO job draws LBAs within its namespace; the device asserts bounds
  // indirectly via GlobalPage. Verify base/size accounting here.
  EXPECT_EQ(env.device().NamespaceBasePage(0), 0u);
  EXPECT_EQ(env.device().NamespaceBasePage(1), 1000u);
  EXPECT_EQ(env.device().NamespacePages(0), 1000u);
  FioJobSpec spec = LTenantSpec(0, /*nsid=*/1);
  Rng rng(1);
  FioJob job(&env.machine(), &env.stack(), spec, 1, 0, rng, 0,
             env.measure_end());
  job.Start();
  env.sim().RunUntil(2 * kMillisecond);
  EXPECT_GT(job.total_completed(), 0u);
}

}  // namespace
}  // namespace daredevil
