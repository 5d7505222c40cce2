// Tests for the tracepoint infrastructure and its wiring into the stack.
#include <gtest/gtest.h>

#include <array>
#include <set>
#include <sstream>
#include <string>

#include "src/sim/trace.h"
#include "src/workload/scenario.h"

namespace daredevil {
namespace {

TEST(TraceLogTest, RecordsEventsInOrder) {
  TraceLog log(8);
  log.Record(10, TraceCategory::kSubmit, 1, 2, 3);
  log.Record(20, TraceCategory::kRoute, 1, 5, 0);
  ASSERT_EQ(log.size(), 2u);
  const auto events = log.Events();
  EXPECT_EQ(events[0].at, 10);
  EXPECT_EQ(events[0].category, TraceCategory::kSubmit);
  EXPECT_EQ(events[0].a, 2);
  EXPECT_EQ(events[1].at, 20);
  EXPECT_EQ(log.CountOf(TraceCategory::kSubmit), 1u);
  EXPECT_EQ(log.CountOf(TraceCategory::kRoute), 1u);
  EXPECT_EQ(log.CountOf(TraceCategory::kIrq), 0u);
}

TEST(TraceLogTest, RingDropsOldestWhenFull) {
  TraceLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.Record(i, TraceCategory::kOther, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total_recorded(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  const auto events = log.Events();
  // Chronological: the last 4 events survive.
  EXPECT_EQ(events.front().at, 6);
  EXPECT_EQ(events.back().at, 9);
}

TEST(TraceLogTest, CsvFormat) {
  TraceLog log(8);
  log.Record(100, TraceCategory::kFetch, 42, 3, 8);
  std::ostringstream out;
  log.WriteCsv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("time_ns,category,id,a,b\n"), std::string::npos);
  EXPECT_NE(csv.find("100,fetch,42,3,8\n"), std::string::npos);
}

TEST(TraceLogTest, ClearResets) {
  TraceLog log(4);
  log.Record(1, TraceCategory::kIrq);
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total_recorded(), 0u);
  EXPECT_EQ(log.CountOf(TraceCategory::kIrq), 0u);
}

TEST(TraceLogTest, CategoryNamesStable) {
  EXPECT_STREQ(TraceCategoryName(TraceCategory::kSubmit), "submit");
  EXPECT_STREQ(TraceCategoryName(TraceCategory::kSchedule), "schedule");
  EXPECT_STREQ(TraceCategoryName(TraceCategory::kMigrate), "migrate");
  EXPECT_STREQ(TraceCategoryName(TraceCategory::kFetchStart), "fetch-start");
  EXPECT_STREQ(TraceCategoryName(TraceCategory::kFlashStart), "flash-start");
  EXPECT_STREQ(TraceCategoryName(TraceCategory::kFlashEnd), "flash-end");
  // Every category has a distinct, non-placeholder name (WriteCsv relies on
  // it).
  std::set<std::string> names;
  for (int c = 0; c < kNumTraceCategories; ++c) {
    const char* name = TraceCategoryName(static_cast<TraceCategory>(c));
    EXPECT_STRNE(name, "?");
    names.insert(name);
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumTraceCategories));
  // The compile-time check behind trace.h's static_assert rejects a
  // duplicate, and a shared prefix is not one.
  static_assert(!trace_internal::AllNamesDistinct(
      std::array<const char*, 3>{"fetch", "irq", "fetch"}));
  static_assert(trace_internal::AllNamesDistinct(
      std::array<const char*, 3>{"fetch", "fetch-start", "irq"}));
}

TEST(TraceWiringTest, ScenarioProducesLifecycleEvents) {
  ScenarioConfig cfg = MakeSvmConfig(2);
  cfg.device.nr_nsq = 8;
  cfg.device.nr_ncq = 8;
  cfg.stack = StackKind::kDareFull;
  cfg.trace_capacity = 1 << 14;
  cfg.warmup = kMillisecond;
  cfg.duration = 10 * kMillisecond;
  AddLTenants(cfg, 2);
  AddTTenants(cfg, 2);

  ScenarioEnv env(cfg);
  ASSERT_NE(env.trace_log(), nullptr);
  env.Start();
  env.sim().RunUntil(env.measure_end());

  TraceLog& log = *env.trace_log();
  // Every lifecycle stage fired, and submits == routes (1:1 per request).
  EXPECT_GT(log.CountOf(TraceCategory::kSubmit), 0u);
  EXPECT_EQ(log.CountOf(TraceCategory::kSubmit),
            log.CountOf(TraceCategory::kRoute));
  EXPECT_GT(log.CountOf(TraceCategory::kFetch), 0u);
  // Every fetch was preceded by a fetch-start (a command may still be
  // mid-fetch when the sim ends, hence >=), and flash dispatch fires in the
  // same step that finishes the fetch (exactly 1:1).
  EXPECT_GE(log.CountOf(TraceCategory::kFetchStart),
            log.CountOf(TraceCategory::kFetch));
  EXPECT_EQ(log.CountOf(TraceCategory::kFlashStart),
            log.CountOf(TraceCategory::kFetch));
  EXPECT_GT(log.CountOf(TraceCategory::kFlashEnd), 0u);
  EXPECT_GT(log.CountOf(TraceCategory::kComplete), 0u);
  EXPECT_GT(log.CountOf(TraceCategory::kIrq), 0u);
  EXPECT_GT(log.CountOf(TraceCategory::kDeliver), 0u);
  // Deliveries cannot exceed completions posted by the device.
  EXPECT_LE(log.CountOf(TraceCategory::kDeliver),
            log.CountOf(TraceCategory::kComplete));
}

TEST(TraceWiringTest, NoTraceLogMeansNoOverheadPath) {
  ScenarioConfig cfg = MakeSvmConfig(2);
  cfg.device.nr_nsq = 8;
  cfg.device.nr_ncq = 8;
  cfg.warmup = kMillisecond;
  cfg.duration = 5 * kMillisecond;
  AddLTenants(cfg, 1);
  ScenarioEnv env(cfg);
  EXPECT_EQ(env.trace_log(), nullptr);  // default: tracing off
}

}  // namespace
}  // namespace daredevil
