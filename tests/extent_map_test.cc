// Durability reference tests for the extent-granular write cache: ExtentMap
// against a per-page std::map under random overlapping operations, and the
// device's volatile/persisted state against a per-page model of DESIGN §13
// driven by a seeded schedule of overlapping writes, FUA writes and FLUSHes
// with torn-write, reorder and flush-ignore hazards, crashed at a random
// event.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/fault/fault_plan.h"
#include "src/nvme/device.h"
#include "src/nvme/extent_map.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"

namespace daredevil {
namespace {

constexpr uint64_t kSpan = 200;  // pages the random operations touch

// Every page of [0, kSpan + 8) and the page count must agree with `ref`, and
// the extents must be ascending, disjoint and non-empty.
void ExpectSameAsPerPage(ExtentMap<int>& m,
                         const std::map<uint64_t, int>& ref) {
  for (uint64_t p = 0; p < kSpan + 8; ++p) {
    const int* got = m.Find(p);
    auto it = ref.find(p);
    if (it == ref.end()) {
      ASSERT_EQ(got, nullptr) << "page " << p;
    } else {
      ASSERT_NE(got, nullptr) << "page " << p;
      ASSERT_EQ(*got, it->second) << "page " << p;
    }
  }
  ASSERT_EQ(m.pages(), ref.size());
  uint64_t prev_hi = 0;
  uint64_t covered = 0;
  m.ForEach([&](uint64_t lo, uint64_t hi, const int&) {
    EXPECT_LE(prev_hi, lo);
    EXPECT_LT(lo, hi);
    prev_hi = hi;
    covered += hi - lo;
  });
  ASSERT_EQ(covered, ref.size());
}

TEST(ExtentMapTest, MatchesPerPageMapUnderRandomOverlappingOps) {
  Rng rng(1307);
  ExtentMap<int> m;
  std::map<uint64_t, int> ref;
  for (int op = 0; op < 4000; ++op) {
    const uint64_t lo = rng.NextBelow(kSpan);
    const uint64_t hi = lo + rng.NextBelow(33);  // 0..32 pages, may be empty
    const int value = static_cast<int>(rng.NextBelow(5));
    switch (rng.NextBelow(4)) {
      case 0:
        m.Assign(lo, hi, value);
        for (uint64_t p = lo; p < hi; ++p) {
          ref[p] = value;
        }
        break;
      case 1:
        m.EraseIf(lo, hi, [](uint64_t, uint64_t, const int&) { return true; });
        for (uint64_t p = lo; p < hi; ++p) {
          ref.erase(p);
        }
        break;
      case 2:
        m.FillGaps(lo, hi, value);
        for (uint64_t p = lo; p < hi; ++p) {
          ref.emplace(p, value);
        }
        break;
      default: {
        // Erase the pages holding `value`, checking every visited piece.
        m.EraseIf(lo, hi, [&](uint64_t a, uint64_t b, const int& v) {
          EXPECT_LE(lo, a);
          EXPECT_LE(b, hi);
          for (uint64_t p = a; p < b; ++p) {
            EXPECT_EQ(ref.at(p), v) << "page " << p;
          }
          return v == value;
        });
        for (uint64_t p = lo; p < hi; ++p) {
          auto it = ref.find(p);
          if (it != ref.end() && it->second == value) {
            ref.erase(it);
          }
        }
        break;
      }
    }
    ExpectSameAsPerPage(m, ref);
    if (HasFatalFailure()) {
      FAIL() << "after operation " << op;
    }
  }
  EXPECT_LT(m.extent_count(), m.pages());  // ranges, not pages
}

TEST(ExtentMapTest, RewriteOfSameRangeKeepsOneExtent) {
  ExtentMap<int> m;
  for (int i = 0; i < 100; ++i) {
    m.Assign(64, 96, i);
  }
  EXPECT_EQ(m.extent_count(), 1u);
  EXPECT_EQ(m.pages(), 32u);
  EXPECT_EQ(*m.Find(95), 99);
  // A write in the middle splits the extent into three.
  m.Assign(70, 72, -1);
  EXPECT_EQ(m.extent_count(), 3u);
  EXPECT_EQ(m.pages(), 32u);
  EXPECT_EQ(*m.Find(69), 99);
  EXPECT_EQ(*m.Find(71), -1);
  EXPECT_EQ(*m.Find(72), 99);
}

// --- Device write cache against a per-page model of DESIGN §13 ------------

// The per-page semantics the extent-based device must reproduce.
struct PageCacheModel {
  struct Volatile {
    uint64_t cid;
    bool torn;
    bool escape;
  };
  struct Persisted {
    uint64_t cid;
    bool torn;
  };
  std::map<uint64_t, Volatile> vol;
  std::map<uint64_t, Persisted> per;

  // A write page enters the cache at fetch; later writes win.
  void Write(uint64_t page, uint64_t cid, bool torn, bool escape) {
    vol[page] = Volatile{cid, torn, escape};
  }
  // FLUSH: persists everything but reorder escapees, whose escape is used up.
  void Barrier() {
    for (auto it = vol.begin(); it != vol.end();) {
      if (it->second.escape) {
        it->second.escape = false;
        ++it;
        continue;
      }
      per[it->first] = Persisted{it->second.cid, it->second.torn};
      it = vol.erase(it);
    }
  }
  // FUA: persists the command's pages as currently cached; only pages still
  // holding its own cid leave the cache.
  void Fua(uint64_t base, uint32_t pages, uint64_t cid) {
    for (uint64_t p = base; p < base + pages; ++p) {
      auto it = vol.find(p);
      if (it == vol.end()) {
        continue;
      }
      per[p] = Persisted{it->second.cid, it->second.torn};
      if (it->second.cid == cid) {
        vol.erase(it);
      }
    }
  }
  // Power loss: torn cached pages persist torn, clean ones are lost, and
  // in-flight writes (ascending cid) read back torn only where nothing was
  // durable before.
  void Crash(const std::map<uint64_t, NvmeCommand>& inflight_writes) {
    for (const auto& [page, v] : vol) {
      if (v.torn) {
        per[page] = Persisted{v.cid, true};
      }
    }
    vol.clear();
    for (const auto& [cid, cmd] : inflight_writes) {
      for (uint64_t p = cmd.lba.value(); p < cmd.lba.value() + cmd.pages; ++p) {
        per.emplace(p, Persisted{cid, true});
      }
    }
  }
};

constexpr uint64_t kNsPages = 256;  // small, so writes overlap heavily

FaultPlan DurabilityHazards(uint64_t seed) {
  FaultPlan plan;
  FaultSpec torn;
  torn.kind = FaultKind::kTornWrite;
  torn.probability = 0.05;
  plan.Add(torn);
  FaultSpec reorder;
  reorder.kind = FaultKind::kWriteReorder;
  reorder.probability = 0.1;
  plan.Add(reorder);
  FaultSpec ignore;
  ignore.kind = FaultKind::kFlushIgnore;
  ignore.probability = 0.3;
  plan.Add(ignore);
  plan.Reseed(seed);
  return plan;
}

struct ScheduleRun {
  Simulator sim;
  Device device;
  TraceLog trace;
  FaultPlan plan;
  std::map<uint64_t, NvmeCommand> submitted;  // by cid

  ScheduleRun(uint64_t seed, bool hazards)
      : device(&sim, Config()),
        plan(hazards ? DurabilityHazards(seed) : FaultPlan{}) {
    device.SetTraceLog(&trace);
    device.SetFaultPlan(&plan);
    device.SetIrqHandler([this](int ncq) {
      device.DrainCompletions(ncq, 1000);
      device.IrqDone(ncq);
    });
    // 300 commands at random instants over 20 ms on four NSQs.
    Rng rng(seed);
    for (uint64_t cid = 1; cid <= 300; ++cid) {
      NvmeCommand cmd;
      cmd.cid = cid;
      cmd.nsid = 0;
      const uint64_t kind = rng.NextBelow(10);
      if (kind < 1) {
        cmd.is_flush = true;
        cmd.pages = 1;
      } else {
        cmd.pages = static_cast<uint32_t>(1 + rng.NextBelow(32));
        cmd.lba = Lba{rng.NextBelow(kNsPages - cmd.pages + 1)};
        cmd.is_write = kind < 9;
        cmd.fua = cmd.is_write && kind >= 7;
      }
      const int sqid = static_cast<int>(rng.NextBelow(4));
      cmd.sqid = sqid;
      const auto at = static_cast<Tick>(
          rng.NextBelow(static_cast<uint64_t>(20 * kMillisecond)));
      submitted[cid] = cmd;
      sim.At(at, [this, sqid, cid]() {
        ASSERT_TRUE(device.Enqueue(sqid, submitted.at(cid)));
        device.RingDoorbell(sqid);
      });
    }
  }

  static DeviceConfig Config() {
    DeviceConfig config;
    config.nr_nsq = 8;
    config.nr_ncq = 4;
    config.queue_depth = 512;
    config.namespace_pages = {kNsPages};
    config.max_inflight_pages = 64;
    return config;
  }
};

// Replays the device trace (record order = execution order) into the model.
// The hazard decisions come from a replica of the plan consulted in the
// device's order: the plan holds only durability specs, so the device's
// other consultations draw nothing from its Rng.
PageCacheModel ReplayTrace(const ScheduleRun& run, FaultPlan replica,
                           bool hazards, bool crash) {
  PageCacheModel model;
  std::map<uint64_t, NvmeCommand> inflight_writes;
  for (const TraceEvent& e : run.trace.Events()) {
    if (e.category != TraceCategory::kFetch &&
        e.category != TraceCategory::kFlashEnd &&
        e.category != TraceCategory::kComplete) {
      continue;
    }
    const NvmeCommand& cmd = run.submitted.at(e.id);
    const uint64_t base = cmd.lba.value();
    if (e.category == TraceCategory::kFetch && cmd.is_write) {
      inflight_writes[cmd.cid] = cmd;
      for (uint64_t p = base; p < base + cmd.pages; ++p) {
        bool torn = false;
        bool escape = false;
        if (hazards) {
          torn = replica.TornWrite(e.at, run.device.flash().ChannelOf(p),
                                   run.device.flash().ChipOf(p));
          escape = replica.ReorderWrite(e.at, cmd.sqid);
        }
        model.Write(p, cmd.cid, torn, escape);
      }
    } else if (e.category == TraceCategory::kFlashEnd) {
      inflight_writes.erase(cmd.cid);
    } else if (e.category == TraceCategory::kComplete) {
      if (cmd.is_flush) {
        if (!hazards || !replica.IgnoreFlush(e.at, cmd.sqid)) {
          model.Barrier();
        }
      } else if (cmd.is_write && cmd.fua) {
        model.Fua(base, cmd.pages, cmd.cid);
      }
    }
  }
  if (crash) {
    model.Crash(inflight_writes);
  }
  return model;
}

void ExpectDeviceMatchesModel(const Device& device, const PageCacheModel& model,
                              bool crashed) {
  EXPECT_EQ(device.volatile_page_count(), crashed ? 0u : model.vol.size());
  EXPECT_EQ(device.persisted_page_count(), model.per.size());
  for (uint64_t p = 0; p < kNsPages; ++p) {
    const PersistedPageView got = device.PersistedAt(0, Lba{p});
    auto it = model.per.find(p);
    ASSERT_EQ(got.present, it != model.per.end()) << "page " << p;
    if (got.present) {
      EXPECT_EQ(got.cid, it->second.cid) << "page " << p;
      EXPECT_EQ(got.torn, it->second.torn) << "page " << p;
    }
  }
}

class DurabilityReferenceTest : public ::testing::TestWithParam<bool> {};

TEST_P(DurabilityReferenceTest, DeviceMatchesPerPageModelAtRandomCrashPoints) {
  const bool hazards = GetParam();
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    // A first run counts the schedule's events; the second crashes at a
    // seeded one of them.
    uint64_t events = 0;
    {
      ScheduleRun full(seed, hazards);
      full.sim.RunUntilIdle();
      events = full.sim.events_processed();
      ASSERT_EQ(full.device.commands_completed(), full.submitted.size());
      ASSERT_EQ(full.trace.dropped(), 0u);
      const PageCacheModel model =
          ReplayTrace(full, DurabilityHazards(seed), hazards, false);
      ExpectDeviceMatchesModel(full.device, model, false);
      if (hazards) {
        EXPECT_GT(full.plan.injections(FaultKind::kTornWrite), 0u);
        EXPECT_GT(full.plan.injections(FaultKind::kWriteReorder), 0u);
        EXPECT_GT(full.plan.injections(FaultKind::kFlushIgnore), 0u);
      }
    }
    ScheduleRun run(seed, hazards);
    const uint64_t crash_at = 1 + Rng(seed * 7919).NextBelow(events);
    while (run.sim.events_processed() < crash_at && run.sim.Step()) {
    }
    ASSERT_EQ(run.trace.dropped(), 0u);
    const PageCacheModel before =
        ReplayTrace(run, DurabilityHazards(seed), hazards, false);
    ExpectDeviceMatchesModel(run.device, before, false);
    run.device.Crash();
    ExpectDeviceMatchesModel(
        run.device, ReplayTrace(run, DurabilityHazards(seed), hazards, true),
        true);
  }
}

INSTANTIATE_TEST_SUITE_P(Hazards, DurabilityReferenceTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "WithHazards" : "FaultFree";
                         });

}  // namespace
}  // namespace daredevil
