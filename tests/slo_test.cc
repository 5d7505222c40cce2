// Per-tenant SLO engine: window math, burn rates, episode derivation and the
// HOL-blocking cross-link must be exact on synthetic inputs, and the
// scenario-level report must stay outside the fingerprinted projection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "src/sim/rng.h"
#include "src/stats/holb.h"
#include "src/stats/metrics.h"
#include "src/stats/slo.h"
#include "src/workload/scenario.h"
#include "tests/scenario_capture.h"

namespace daredevil {
namespace {

SloSpec TestSpec(const std::string& selector, Tick threshold, Tick window,
                 double target = 50.0) {
  SloSpec spec;
  spec.selector = selector;
  spec.target_percentile = target;  // budget = 0.5 by default: easy ratios
  spec.threshold = threshold;
  spec.window = window;
  spec.slow_windows = 2;
  spec.burn_alert = 1.0;
  return spec;
}

TEST(SloTrackerTest, WindowMathAndBurnRates) {
  SloTracker tracker({TestSpec("L0", /*threshold=*/10, /*window=*/100)},
                     /*origin=*/0, /*horizon=*/1000);
  SloTenantState* state = tracker.AddTenant("L0", "L", 1);
  ASSERT_NE(state, nullptr);

  // Window 0: one good, one bad -> fast burn (1/2)/0.5 = 1.0, violating.
  state->Record(10, 5, true);
  state->Record(20, 50, true);
  // Window 1: two good -> fast 0; slow over windows {0,1} = (1/4)/0.5 = 0.5.
  state->Record(110, 5, true);
  state->Record(120, 5, true);
  // Window 2: an error completion is bad regardless of latency.
  state->Record(250, 5, false);

  const SloReport report = tracker.Finalize();
  const SloTenantReport* r = report.Find("L0");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->good, 3u);
  EXPECT_EQ(r->bad, 2u);
  EXPECT_DOUBLE_EQ(r->conformance_pct, 60.0);
  EXPECT_TRUE(r->met);  // 60% >= the 50% target
  // budget_burned = bad / (budget * total) = 2 / (0.5 * 5) = 0.8.
  EXPECT_DOUBLE_EQ(r->budget_burned, 0.8);

  ASSERT_EQ(r->windows.size(), 3u);
  EXPECT_DOUBLE_EQ(r->windows[0].fast_burn, 1.0);
  EXPECT_TRUE(r->windows[0].violating);
  EXPECT_DOUBLE_EQ(r->windows[1].fast_burn, 0.0);
  EXPECT_FALSE(r->windows[1].violating);
  EXPECT_DOUBLE_EQ(r->windows[1].slow_burn, 0.5);  // trailing 2 windows
  EXPECT_DOUBLE_EQ(r->windows[2].fast_burn, 2.0);  // 1 bad of 1
  EXPECT_TRUE(r->windows[2].violating);
  // Slow burn over windows {1,2}: (1/3)/0.5.
  EXPECT_DOUBLE_EQ(r->windows[2].slow_burn, (1.0 / 3.0) / 0.5);
  EXPECT_DOUBLE_EQ(r->max_slow_burn, 1.0);  // window 0 (only itself trailing)

  // Two separate episodes: window 0 and window 2.
  ASSERT_EQ(r->episodes.size(), 2u);
  EXPECT_EQ(r->episodes[0].begin, 0);
  EXPECT_EQ(r->episodes[0].end, 100);
  EXPECT_EQ(r->episodes[1].begin, 200);
  EXPECT_EQ(r->episodes[1].end, 300);
  EXPECT_DOUBLE_EQ(r->episodes[1].peak_burn, 2.0);
  // Worst = longest; equal durations tie-break to the earliest.
  EXPECT_EQ(r->WorstEpisode(), &r->episodes[0]);
}

TEST(SloTrackerTest, ConsecutiveViolatingWindowsCoalesce) {
  SloTracker tracker({TestSpec("L0", /*threshold=*/1, /*window=*/100)},
                     /*origin=*/0, /*horizon=*/250);
  SloTenantState* state = tracker.AddTenant("L0", "L", 1);
  ASSERT_NE(state, nullptr);
  state->Record(10, 50, true);
  state->Record(110, 50, true);
  state->Record(210, 50, true);

  const SloReport report = tracker.Finalize();
  const SloTenantReport* r = report.Find("L0");
  ASSERT_NE(r, nullptr);
  ASSERT_EQ(r->episodes.size(), 1u);
  EXPECT_EQ(r->episodes[0].begin, 0);
  // The final window [200, 300) is clamped to the horizon.
  EXPECT_EQ(r->episodes[0].end, 250);
  EXPECT_EQ(r->episodes[0].bad, 3u);
  EXPECT_EQ(r->episodes[0].total, 3u);
  EXPECT_EQ(report.TotalEpisodes(), 1u);
}

TEST(SloTrackerTest, ExactNameSpecWinsOverGroupSpec) {
  SloTracker tracker({TestSpec("L", /*threshold=*/100, /*window=*/100),
                      TestSpec("L0", /*threshold=*/200, /*window=*/100)},
                     0, 1000);
  SloTenantState* named = tracker.AddTenant("L0", "L", 1);
  ASSERT_NE(named, nullptr);
  EXPECT_EQ(named->spec().threshold, 200);  // name match beats group match
  SloTenantState* grouped = tracker.AddTenant("L1", "L", 2);
  ASSERT_NE(grouped, nullptr);
  EXPECT_EQ(grouped->spec().threshold, 100);
  EXPECT_EQ(tracker.AddTenant("T0", "T", 3), nullptr);
}

TEST(SloTrackerTest, OutOfRangeDeliveriesAreCountedAsIgnored) {
  SloTracker tracker({TestSpec("L0", 10, 100)}, /*origin=*/100,
                     /*horizon=*/200);
  SloTenantState* state = tracker.AddTenant("L0", "L", 1);
  ASSERT_NE(state, nullptr);
  state->Record(50, 5, true);    // before the origin
  state->Record(200, 5, true);   // at the horizon
  state->Record(150, 5, true);   // in range
  const SloReport report = tracker.Finalize();
  const SloTenantReport* r = report.Find("L0");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->ignored, 2u);
  EXPECT_EQ(r->total(), 1u);
  EXPECT_DOUBLE_EQ(r->conformance_pct, 100.0);
}

TEST(SloTrackerTest, ExtremeTargetPercentileIsClampedNotDivByZero) {
  SloSpec spec = TestSpec("L0", 10, 100, /*target=*/100.0);
  SloTracker tracker({spec}, 0, 1000);
  SloTenantState* state = tracker.AddTenant("L0", "L", 1);
  ASSERT_NE(state, nullptr);
  state->Record(10, 50, true);  // bad
  const SloReport report = tracker.Finalize();
  const SloTenantReport* r = report.Find("L0");
  ASSERT_NE(r, nullptr);
  // Clamped to 99.999: the budget is tiny but finite, so every burn value
  // must serialize as a real number.
  EXPECT_LE(r->spec.target_percentile, 99.999);
  EXPECT_TRUE(std::isfinite(r->budget_burned));
  JsonWriter w;
  report.AppendJson(w);
  std::string error;
  EXPECT_TRUE(JsonLooksValid(w.str(), &error)) << error;
}

RequestRecord MakeRecord(uint64_t id, uint64_t tenant, int nsq, Tick enqueue,
                         Tick fetch_start, Tick fetch, uint32_t pages,
                         bool latency_sensitive) {
  RequestRecord r;
  r.id = id;
  r.tenant_id = tenant;
  r.pages = pages;
  r.latency_sensitive = latency_sensitive;
  r.nsq = nsq;
  r.ncq = nsq;
  r.t.nsq_enqueue = enqueue;
  r.t.doorbell = enqueue;
  r.t.fetch_start = fetch_start;
  r.t.fetch = fetch;
  r.t.flash_start = fetch;
  r.t.flash_end = fetch + 50;
  r.t.cqe_post = fetch + 60;
  r.t.drain = fetch + 70;
  r.t.complete = fetch + 80;
  return r;
}

// Attributes `report`'s episodes over `records` the way RunScenario does.
void Attribute(SloReport& report, const std::vector<RequestRecord>& records,
               const std::map<uint64_t, std::string>& tenant_names) {
  const BlockingIntervals intervals(records);
  HolbOptions opts;
  opts.tenant_names = tenant_names;
  AttributeSloEpisodes(report, HolbAnalyzer(records, intervals, opts));
}

// The holb_test worked example, seen from the SLO side: the victim (tenant 1)
// violates its objective inside one window and the episode must name the bulk
// tenant as its dominant blocker via the fetch-slot mechanism (200ns of fetch
// blocking vs 50ns of head blocking).
TEST(SloAttributionTest, EpisodeCarriesDominantBlocker) {
  const std::vector<RequestRecord> records = {
      MakeRecord(/*id=*/1, /*tenant=*/9, /*nsq=*/0, /*enqueue=*/100,
                 /*fetch_start=*/200, /*fetch=*/400, /*pages=*/32, false),
      MakeRecord(/*id=*/2, /*tenant=*/1, /*nsq=*/0, /*enqueue=*/150,
                 /*fetch_start=*/400, /*fetch=*/410, /*pages=*/1, true),
  };

  SloTracker tracker({TestSpec("L0", /*threshold=*/1, /*window=*/1000)}, 0,
                     1000);
  SloTenantState* state = tracker.AddTenant("L0", "L", 1);
  ASSERT_NE(state, nullptr);
  state->Record(/*at=*/490, /*latency=*/250, true);  // bad: 250 > 1
  SloReport report = tracker.Finalize();
  ASSERT_EQ(report.TotalEpisodes(), 1u);

  Attribute(report, records, {{1, "L0"}, {9, "T9"}});
  const SloTenantReport* r = report.Find("L0");
  ASSERT_NE(r, nullptr);
  const SloEpisode& ep = r->episodes[0];
  EXPECT_EQ(ep.blame, "T9");
  EXPECT_EQ(ep.mechanism, "fetch-slot");
  EXPECT_EQ(ep.blame_ns, 250);
  ASSERT_EQ(r->attribution.size(), 1u);
  EXPECT_EQ(r->attribution[0].key, "T9");
  EXPECT_EQ(r->attribution[0].head_block_ns, 50);
  EXPECT_EQ(r->attribution[0].fetch_slot_ns, 200);
}

TEST(SloAttributionTest, VictimFiltersRestrictTheHolbPass) {
  const std::vector<RequestRecord> records = {
      MakeRecord(1, 9, 0, 100, 200, 400, 32, false),
      MakeRecord(2, 1, 0, 150, 400, 410, 1, true),  // completes at 490
  };
  const BlockingIntervals intervals(records);
  const HolbAnalyzer holb(records, intervals, HolbOptions());
  // [0, 100) excludes the completion at 490.
  EXPECT_EQ(holb.TenantWindow(1, 0, 100).victims, 0u);
  const HolbReport hr = holb.TenantWindow(1, 0, 500);
  EXPECT_EQ(hr.victims, 1u);
  EXPECT_EQ(hr.total_wait_ns, 250);
  // The tenant filter must also exclude the other tenant's request as a
  // victim: tenant 9's unbounded window holds only its bulk request.
  EXPECT_EQ(holb.TenantWindow(9, 0, -1).victims, 1u);
}

TEST(SloAttributionTest, UnattributedEpisodeStaysNamedAsSuch) {
  // No records at all: the episode keeps its "unattributed" mechanism.
  SloTracker tracker({TestSpec("L0", 1, 1000)}, 0, 1000);
  SloTenantState* state = tracker.AddTenant("L0", "L", 1);
  state->Record(490, 250, true);
  SloReport report = tracker.Finalize();
  Attribute(report, {}, {});
  const SloTenantReport* r = report.Find("L0");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->episodes[0].blame, "");
  EXPECT_EQ(r->episodes[0].mechanism, "unattributed");
}

// --- Attribution vs a fresh pass per episode ------------------------------

// The victims a reference pass admits: requests of `tenant_id` (0: of any
// tenant) completing in [begin, end); a negative `end` means unbounded.
struct VictimWindow {
  uint64_t tenant_id = 0;
  Tick begin = 0;
  Tick end = -1;
};

// A reference HOL pass that shares no code with BlockingIntervals or
// HolbAnalyzer: each NSQ's records sorted on their own, head starts kept in a
// pointer-keyed map, rows keyed by string. Admits the victims of `window`
// and honors HolbOptions' latency-class filter, top_n cut and tenant names.
HolbReport ReferenceHolb(const std::vector<RequestRecord>& records,
                         const HolbOptions& opts,
                         const VictimWindow& window = VictimWindow()) {
  struct Owned {
    Tick begin;
    Tick end;
    const RequestRecord* owner;
  };
  auto tenant_key = [&opts](uint64_t tenant_id) {
    auto it = opts.tenant_names.find(tenant_id);
    return it != opts.tenant_names.end() ? it->second
                                         : "tenant" + std::to_string(tenant_id);
  };
  auto size_key = [&opts](uint32_t pages) {
    const std::string threshold = std::to_string(opts.bulk_threshold_pages);
    return pages >= opts.bulk_threshold_pages ? "bulk(>=" + threshold + "p)"
                                              : "small(<" + threshold + "p)";
  };
  auto by_fetch_start = [](const RequestRecord* a, const RequestRecord* b) {
    return a->t.fetch_start != b->t.fetch_start
               ? a->t.fetch_start < b->t.fetch_start
               : a->id < b->id;
  };

  std::map<int, std::vector<Owned>> heads_by_nsq;
  std::map<const RequestRecord*, Tick> own_head_start;
  std::map<int, std::vector<const RequestRecord*>> by_nsq;
  for (const RequestRecord& r : records) {
    by_nsq[r.nsq].push_back(&r);
  }
  for (auto& [nsq, rqs] : by_nsq) {
    std::sort(rqs.begin(), rqs.end(), by_fetch_start);
    Tick prev_departure = 0;
    for (const RequestRecord* r : rqs) {
      const Tick visible = r->t.doorbell > 0 ? r->t.doorbell : r->t.nsq_enqueue;
      const Tick head_start = std::max(visible, prev_departure);
      heads_by_nsq[nsq].push_back({head_start, r->t.fetch_start, r});
      own_head_start[r] = head_start;
      prev_departure = r->t.fetch_start;
    }
  }
  std::vector<const RequestRecord*> engine;
  for (const RequestRecord& r : records) {
    engine.push_back(&r);
  }
  std::sort(engine.begin(), engine.end(), by_fetch_start);
  std::vector<Owned> fetches;
  for (const RequestRecord* r : engine) {
    fetches.push_back({r->t.fetch_start, r->t.fetch, r});
  }

  HolbReport report;
  std::map<std::string, HolbRow> by_tenant;
  std::map<std::string, HolbRow> by_size;
  auto add = [](std::map<std::string, HolbRow>& rows, const std::string& key,
                Tick HolbRow::*mechanism, Tick ns) {
    HolbRow& row = rows[key];
    row.key = key;
    ++row.blocking_events;
    row.*mechanism += ns;
  };
  // Charges the overlap of [begin, end) with each interval but the victim's
  // own. The intervals are disjoint and ordered: the scan starts at the first
  // one ending after `begin` and stops at the first starting at `end`.
  auto charge = [&](const std::vector<Owned>& intervals,
                    const RequestRecord& victim, Tick begin, Tick end,
                    Tick HolbRow::*mechanism) {
    Tick sum = 0;
    auto it = std::partition_point(
        intervals.begin(), intervals.end(),
        [begin](const Owned& iv) { return iv.end <= begin; });
    for (; it != intervals.end() && it->begin < end; ++it) {
      const Tick ns = std::min(end, it->end) - std::max(begin, it->begin);
      if (it->owner == &victim || ns <= 0) {
        continue;
      }
      sum += ns;
      add(by_tenant, tenant_key(it->owner->tenant_id), mechanism, ns);
      add(by_size, size_key(it->owner->pages), mechanism, ns);
    }
    return sum;
  };
  for (const RequestRecord& victim : records) {
    if ((opts.victims_latency_sensitive_only && !victim.latency_sensitive) ||
        (window.tenant_id != 0 && victim.tenant_id != window.tenant_id) ||
        victim.t.complete < window.begin ||
        (window.end >= 0 && victim.t.complete >= window.end)) {
      continue;
    }
    ++report.victims;
    const Tick wait_begin = victim.t.nsq_enqueue;
    const Tick wait_end = victim.t.fetch_start;
    if (wait_end <= wait_begin) {
      continue;
    }
    report.total_wait_ns += wait_end - wait_begin;
    report.attributed_head_ns +=
        charge(heads_by_nsq[victim.nsq], victim, wait_begin, wait_end,
               &HolbRow::head_block_ns);
    const Tick head_begin = own_head_start.at(&victim);
    if (head_begin < wait_end) {
      report.attributed_fetch_ns += charge(fetches, victim, head_begin,
                                           wait_end, &HolbRow::fetch_slot_ns);
    }
  }
  const Tick attributed =
      report.attributed_head_ns + report.attributed_fetch_ns;
  report.residual_ns = std::max<Tick>(report.total_wait_ns - attributed, 0);
  auto rank = [&opts](const std::map<std::string, HolbRow>& rows) {
    std::vector<HolbRow> out;
    for (const auto& [key, row] : rows) {
      out.push_back(row);
    }
    std::sort(out.begin(), out.end(), [](const HolbRow& a, const HolbRow& b) {
      return a.total_ns() != b.total_ns() ? a.total_ns() > b.total_ns()
                                          : a.key < b.key;
    });
    out.resize(std::min(out.size(), opts.top_n));
    return out;
  };
  report.by_tenant = rank(by_tenant);
  report.by_size = rank(by_size);
  return report;
}

// One episode's reference pass: the victims are the episode tenant's
// requests (of any latency class) completing inside it.
HolbReport ReferenceEpisode(const std::vector<RequestRecord>& records,
                            const SloTenantReport& r, const SloEpisode& ep,
                            const std::map<uint64_t, std::string>& names) {
  HolbOptions opts;
  opts.victims_latency_sensitive_only = false;
  opts.tenant_names = names;
  return ReferenceHolb(records, opts, {r.tenant_id, ep.begin, ep.end});
}

// The reference rule: one fresh reference pass per episode. Each episode's
// by-tenant rows are ranked and cut to top_n, the top non-self row becomes
// the blame, and the cut rows are summed into the attribution.
SloReport ReferenceAttribution(SloReport report,
                               const std::vector<RequestRecord>& records,
                               const std::map<uint64_t, std::string>& names) {
  if (report.empty() || records.empty()) {
    return report;
  }
  for (auto& [name, r] : report.tenants) {
    if (r.tenant_id == 0 || r.episodes.empty()) {
      continue;
    }
    std::map<std::string, SloBlameRow> merged;
    for (SloEpisode& ep : r.episodes) {
      const HolbReport hr = ReferenceEpisode(records, r, ep, names);
      bool blamed = false;
      for (const HolbRow& row : hr.by_tenant) {
        if (row.key == r.tenant) {
          continue;
        }
        if (!blamed) {
          ep.blame = row.key;
          ep.mechanism = row.head_block_ns >= row.fetch_slot_ns
                             ? "same-queue-head"
                             : "fetch-slot";
          ep.blame_ns = row.total_ns();
          blamed = true;
        }
        SloBlameRow& agg = merged[row.key];
        agg.key = row.key;
        agg.blocking_events += row.blocking_events;
        agg.head_block_ns += row.head_block_ns;
        agg.fetch_slot_ns += row.fetch_slot_ns;
      }
    }
    r.attribution.clear();
    for (const auto& [key, row] : merged) {
      r.attribution.push_back(row);
    }
    std::sort(r.attribution.begin(), r.attribution.end(),
              [](const SloBlameRow& a, const SloBlameRow& b) {
                if (a.total_ns() != b.total_ns()) {
                  return a.total_ns() > b.total_ns();
                }
                return a.key < b.key;
              });
  }
  return report;
}

std::string ReportJson(const SloReport& report) {
  JsonWriter w;
  report.AppendJson(w);
  return w.str();
}

std::string HolbJson(const HolbReport& report) {
  JsonWriter w;
  report.AppendJson(w);
  return w.str();
}

// Attributes `report` both ways and requires byte-equal reports. Also
// requires HolbAnalyzer::TenantWindow to equal the reference pass per
// episode, and AnalyzeHolBlocking to equal it over the whole run.
void ExpectMatchesReference(const SloReport& report,
                            const std::vector<RequestRecord>& records,
                            const std::map<uint64_t, std::string>& names) {
  SloReport indexed = report;
  Attribute(indexed, records, names);
  EXPECT_EQ(ReportJson(indexed),
            ReportJson(ReferenceAttribution(report, records, names)));
  const BlockingIntervals intervals(records);
  HolbOptions named;
  named.tenant_names = names;
  const HolbAnalyzer holb(records, intervals, named);
  for (const auto& [name, r] : report.tenants) {
    for (const SloEpisode& ep : r.episodes) {
      ASSERT_EQ(HolbJson(holb.TenantWindow(r.tenant_id, ep.begin, ep.end)),
                HolbJson(ReferenceEpisode(records, r, ep, names)))
          << name << " episode [" << ep.begin << ", " << ep.end << ")";
    }
  }
  for (const bool ls_only : {true, false}) {
    HolbOptions opts;
    opts.victims_latency_sensitive_only = ls_only;
    opts.tenant_names = names;
    EXPECT_EQ(HolbJson(AnalyzeHolBlocking(records, opts)),
              HolbJson(ReferenceHolb(records, opts)));
  }
}

TEST(SloAttributionTest, IndexMatchesAFreshPassPerEpisodeOnARealRun) {
  // A tight objective under blk-mq, evaluated over short windows: about a
  // hundred episodes, mostly blamed on the bulk tenants sharing the
  // L-tenants' queues.
  ScenarioConfig cfg = MakeSvmConfig(4);
  cfg.stack = StackKind::kVanilla;
  cfg.warmup = kMillisecond;
  cfg.duration = 60 * kMillisecond;
  cfg.seed = 7;
  AddLTenants(cfg, 2);
  AddTTenants(cfg, 2);
  SloSpec spec;
  spec.selector = "L";
  spec.threshold = 100 * kMicrosecond;
  spec.window = 100 * kMicrosecond;
  cfg.slos.push_back(spec);
  CapturedRun run = CaptureRun(cfg);
  ASSERT_GE(run.slo.TotalEpisodes(), 50u);
  ExpectMatchesReference(run.slo, run.records, run.env->TenantNames());
}

TEST(SloAttributionTest, IndexMatchesAFreshPassPerEpisodeOnRandomRecords) {
  // Random record sets: a few NSQs shared by 14 tenants (most without a
  // display name, two sharing one), so heads queue behind each other and
  // behind their own tenant's requests, and busy episodes see more blocker
  // rows than the top_n cut keeps. Waits may be zero, doorbells missing (0),
  // and completions land in, between and outside episodes.
  const std::map<uint64_t, std::string> names = {
      {1, "L0"}, {2, "L1"}, {3, "T0"}, {4, "T1"}, {5, "T1"}};
  constexpr uint64_t kTenants = 14;  // more blockers than top_n rows
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::vector<RequestRecord> records;
    std::vector<Tick> fetch_free(3, 0);  // per-NSQ FIFO: fetch starts ascend
    Tick engine_free = 0;
    for (uint64_t id = 1; id <= 400; ++id) {
      RequestRecord r;
      r.id = id;
      r.tenant_id = 1 + rng.NextBelow(kTenants);
      r.pages = rng.NextBool(0.3) ? 32 : 1;
      r.latency_sensitive = r.tenant_id <= 2;
      r.nsq = static_cast<int>(rng.NextBelow(fetch_free.size()));
      r.t.issue = static_cast<Tick>(rng.NextBelow(20000));
      r.t.submit = r.t.issue;
      r.t.nsq_enqueue = r.t.issue + static_cast<Tick>(rng.NextBelow(50));
      r.t.doorbell = rng.NextBool(0.3)
                       ? 0
                       : r.t.nsq_enqueue + static_cast<Tick>(rng.NextBelow(20));
      Tick& nsq_free = fetch_free[static_cast<size_t>(r.nsq)];
      // Zero-length waits when the queue and the engine are idle.
      r.t.fetch_start = std::max({r.t.nsq_enqueue, nsq_free, engine_free});
      if (rng.NextBool(0.5)) {
        r.t.fetch_start += static_cast<Tick>(rng.NextBelow(300));
      }
      r.t.fetch = r.t.fetch_start +
                static_cast<Tick>(rng.NextBelow(r.pages * 20 + 1));
      nsq_free = r.t.fetch_start;
      engine_free = r.t.fetch;
      r.t.flash_start = r.t.fetch;
      r.t.flash_end = r.t.fetch + 50;
      r.t.cqe_post = r.t.flash_end;
      r.t.drain = r.t.cqe_post + 5;
      r.t.complete = r.t.drain + 5;
      records.push_back(r);
    }
    // Episodes of the two L tenants (and one unnamed tracked tenant) at
    // random, possibly empty, completion ranges. Half the bounds land
    // exactly on one of the tenant's completions, so the half-open
    // [begin, end) edges matter.
    SloReport report;
    for (const uint64_t tenant_id : {1, 2, 6}) {
      std::vector<Tick> completions;
      for (const RequestRecord& r : records) {
        if (r.tenant_id == tenant_id) {
          completions.push_back(r.t.complete);
        }
      }
      auto bound = [&](Tick random) {
        return completions.empty() || rng.NextBool(0.5)
                   ? random
                   : completions[rng.NextBelow(completions.size())];
      };
      SloTenantReport t;
      t.tenant = tenant_id == 6 ? "tenant6" : names.at(tenant_id);
      t.tenant_id = tenant_id;
      Tick at = 0;
      for (int i = 0; i < 12; ++i) {
        SloEpisode ep;
        ep.begin = bound(at + static_cast<Tick>(rng.NextBelow(2000)));
        ep.end = std::max(ep.begin,
                          bound(ep.begin +
                                static_cast<Tick>(rng.NextBelow(3000))));
        ep.mechanism = "unattributed";
        at = ep.end;
        t.episodes.push_back(ep);
      }
      report.tenants.emplace(t.tenant, t);
    }
    ExpectMatchesReference(report, records, names);
  }
}

TEST(SloReportTest, JsonAndTableAreWellFormedAndDeterministic) {
  SloTracker tracker({TestSpec("L", 10, 100)}, 0, 1000);
  SloTenantState* a = tracker.AddTenant("L0", "L", 1);
  SloTenantState* b = tracker.AddTenant("L1", "L", 2);
  a->Record(10, 5, true);
  a->Record(20, 50, true);
  b->Record(150, 5, true);
  const SloReport r1 = tracker.Finalize();
  const SloReport r2 = tracker.Finalize();

  JsonWriter w1;
  r1.AppendJson(w1);
  JsonWriter w2;
  r2.AppendJson(w2);
  std::string error;
  EXPECT_TRUE(JsonLooksValid(w1.str(), &error)) << error;
  EXPECT_EQ(w1.str(), w2.str());
  EXPECT_NE(w1.str().find("\"aggregate\""), std::string::npos);

  const std::string table = r1.ToTable();
  EXPECT_NE(table.find("L0"), std::string::npos);
  EXPECT_NE(table.find("L1"), std::string::npos);

  // Aggregate: L0 has 1/2 good, L1 1/1 -> 2/3.
  EXPECT_DOUBLE_EQ(r1.AggregateConformancePct(), 100.0 * 2.0 / 3.0);
  EXPECT_GT(r1.MaxBudgetBurned(), 0.0);
}

// --- Scenario integration -------------------------------------------------

ScenarioConfig SloScenarioConfig(StackKind kind) {
  ScenarioConfig cfg = MakeSvmConfig(2);
  cfg.stack = kind;
  cfg.warmup = kMillisecond;
  cfg.duration = 8 * kMillisecond;
  cfg.seed = 42;
  AddLTenants(cfg, 1);
  AddTTenants(cfg, 2);
  SloSpec spec;
  spec.selector = "L";
  spec.threshold = 60 * kMicrosecond;
  spec.window = kMillisecond;
  spec.slow_windows = 3;
  cfg.slos.push_back(spec);
  return cfg;
}

TEST(SloScenarioTest, ReportIsPopulatedAndObservabilityGated) {
  const ScenarioResult result = RunScenario(SloScenarioConfig(StackKind::kVanilla));
  ASSERT_FALSE(result.slo.empty());
  const SloTenantReport* l0 = result.slo.Find("L0");
  ASSERT_NE(l0, nullptr);
  EXPECT_GT(l0->total(), 0u);
  EXPECT_FALSE(l0->windows.empty());
  // The HOL pass runs implicitly (the SLO config attaches the timeline).
  EXPECT_FALSE(result.holb.empty());

  const std::string with = result.ToJson(true);
  const std::string without = result.ToJson(false);
  EXPECT_NE(with.find("\"slo\""), std::string::npos);
  EXPECT_EQ(without.find("\"slo\""), std::string::npos);
  std::string error;
  EXPECT_TRUE(JsonLooksValid(with, &error)) << error;
}

TEST(SloScenarioTest, ViolationsUnderVanillaAreAttributedToABulkTenant) {
  // The headline story in miniature: with a tight threshold under blk-mq,
  // the L-tenant violates and the blocker ranking points at a T-tenant.
  ScenarioConfig cfg = SloScenarioConfig(StackKind::kVanilla);
  cfg.slos[0].threshold = 30 * kMicrosecond;
  const ScenarioResult result = RunScenario(cfg);
  const SloTenantReport* l0 = result.slo.Find("L0");
  ASSERT_NE(l0, nullptr);
  ASSERT_FALSE(l0->episodes.empty());
  const SloEpisode* worst = l0->WorstEpisode();
  ASSERT_NE(worst, nullptr);
  EXPECT_FALSE(worst->blame.empty());
  EXPECT_EQ(worst->blame[0], 'T') << "dominant blocker was " << worst->blame;
  EXPECT_NE(worst->mechanism, "unattributed");
  ASSERT_FALSE(l0->attribution.empty());
  EXPECT_EQ(l0->attribution[0].key[0], 'T');
}

TEST(SloScenarioTest, SloTrackIsExportedWithTheTrace) {
  ScenarioConfig cfg = SloScenarioConfig(StackKind::kVanilla);
  cfg.slos[0].threshold = 30 * kMicrosecond;
  cfg.export_trace = true;
  const ScenarioResult result = RunScenario(cfg);
  ASSERT_FALSE(result.trace_json.empty());
  EXPECT_NE(result.trace_json.find("SLO conformance"), std::string::npos);
  EXPECT_NE(result.trace_json.find("SLO violation L0"), std::string::npos);
  EXPECT_NE(result.trace_json.find("burn L0"), std::string::npos);
  std::string error;
  EXPECT_TRUE(JsonLooksValid(result.trace_json, &error)) << error;
}

TEST(SloScenarioTest, FailedDeliveriesCountAsBad) {
  // A delivery is good only if it completed kOk and met the threshold. With a
  // threshold no latency reaches, the bad deliveries are the failures the
  // tenant saw inside the window.
  ScenarioConfig cfg = SloScenarioConfig(StackKind::kVanilla);
  cfg.slos[0].threshold = kSecond;
  cfg.faults = MakeDenseFaultPlan(0.05);
  cfg.fault_recovery.max_retries = 0;
  cfg.fault_recovery.timeout = TickDuration{2 * kMillisecond};
  const ScenarioResult result = RunScenario(cfg);
  const SloTenantReport* l0 = result.slo.Find("L0");
  ASSERT_NE(l0, nullptr);
  EXPECT_GT(l0->bad, 0u);
  EXPECT_LE(l0->bad, result.tenant_errors.at("L0").errors);
}

TEST(SloScenarioTest, UnmatchedSpecYieldsEmptyReport) {
  ScenarioConfig cfg = SloScenarioConfig(StackKind::kVanilla);
  cfg.slos[0].selector = "nonexistent";
  const ScenarioResult result = RunScenario(cfg);
  EXPECT_TRUE(result.slo.empty());
  EXPECT_EQ(result.ToJson(true).find("\"slo\""), std::string::npos);
}

}  // namespace
}  // namespace daredevil
