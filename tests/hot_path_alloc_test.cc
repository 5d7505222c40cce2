// Allocation guard for the fault-free per-I/O path. The paper's headline
// Daredevil mix (4 L readers against 16 bulky T writers on one SSD) must run
// its steady state without heap allocations beyond one per write: the engine
// builds events in its arena, the CPU and NVMe queues are rings, the
// device's in-flight table is a slot vector and the ISR drains into a reused
// batch.
//
// Allocations are counted by a replacement global operator new that exists
// only in this binary, as in perfbench's ddbench. The one allocation per
// write is an ExtentMap node of the device's volatile write cache
// (src/nvme/extent_map.h): each T write's cid differs from its neighbours',
// so the cache cannot merge it. Bounding that cache is ROADMAP item 5's
// work. The budget is therefore that node per write plus at most half an
// allocation per read, so one more allocation per read, or per write,
// fails the test.
//
// The second case holds the trace exporter to its header's claim: it
// allocates per track and per event kind, never per record, so one config
// exported after a short and a long run makes the same number of
// allocations.
//
// The third case holds the KV store's set-up to flat per-key state: a
// client's bulk load and cache warm-up allocate per table doubling, never
// per key.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "src/apps/app_io.h"
#include "src/apps/kvstore.h"
#include "src/sim/rng.h"
#include "src/stats/holb.h"
#include "src/stats/trace_export.h"
#include "src/workload/scenario.h"
#include "tests/scenario_capture.h"

namespace {
// The test is single-threaded; a plain counter is exact.
uint64_t g_allocs = 0;

// nullptr when out of memory.
void* CountedAlloc(std::size_t n) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t align) noexcept {
  ++g_allocs;
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
}

void* OrThrow(void* p) {
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

// Every replaceable form, the nothrow ones included (std::stable_sort's
// temporary buffer uses them): a form left out would come from the
// sanitizer's allocator and be released here with free.
void* operator new(std::size_t n) { return OrThrow(CountedAlloc(n)); }
void* operator new[](std::size_t n) { return OrThrow(CountedAlloc(n)); }
void* operator new(std::size_t n, std::align_val_t a) {
  return OrThrow(CountedAlignedAlloc(n, a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return OrThrow(CountedAlignedAlloc(n, a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace daredevil {
namespace {

TEST(HotPathAllocTest, SteadyStateStaysWithinAllocationBudget) {
  if (DAREDEVIL_INVARIANTS) {
    GTEST_SKIP() << "invariants are on: LifecycleChecker's std::map "
                    "allocates per request";
  }
  ScenarioConfig cfg = MakeSvmConfig(4);
  cfg.stack = StackKind::kDareFull;
  AddLTenants(cfg, 4);
  AddTTenants(cfg, 16);
  cfg.warmup = 50 * kMillisecond;
  cfg.duration = 1000 * kMillisecond;
  ScenarioEnv env(cfg);
  env.Start();
  // Completed I/Os so far, and how many of them were writes.
  auto completed = [&env](uint64_t* ios, uint64_t* writes) {
    *ios = 0;
    *writes = 0;
    for (const auto& job : env.jobs()) {
      *ios += job->total_completed();
      if (job->spec().is_write) {
        *writes += job->total_completed();
      }
    }
  };
  // Past warm-up, plus slack for every ring, pool and batch to reach its
  // high-water size; the window after it is steady state.
  env.sim().RunUntil(env.measure_start() + 50 * kMillisecond);
  const uint64_t allocs_before = g_allocs;
  uint64_t ios_before = 0;
  uint64_t writes_before = 0;
  completed(&ios_before, &writes_before);
  env.sim().RunUntil(env.measure_end());
  const uint64_t allocs = g_allocs - allocs_before;
  uint64_t ios = 0;
  uint64_t writes = 0;
  completed(&ios, &writes);
  ios -= ios_before;
  writes -= writes_before;
  const uint64_t reads = ios - writes;
  ASSERT_GT(reads, 1000u) << "the L tenants barely ran";
  ASSERT_GT(writes, 5000u) << "the T tenants barely ran";
  const double beyond_writes_per_read =
      (static_cast<double>(allocs) - static_cast<double>(writes)) /
      static_cast<double>(reads);
  RecordProperty("allocs_per_io", std::to_string(static_cast<double>(allocs) /
                                                 static_cast<double>(ios)));
  RecordProperty("allocs_beyond_writes_per_read",
                 std::to_string(beyond_writes_per_read));
  EXPECT_LE(beyond_writes_per_read, 0.5)
      << allocs << " heap allocations over " << writes << " writes and "
      << reads << " reads";
}

// Allocations SerializeChromeTrace makes for vanilla blk-mq with the trace
// ring, the sampler and an L SLO after `duration` of measurement; sets
// `*records` to the records exported.
uint64_t ExportAllocations(Tick duration, size_t* records) {
  ScenarioConfig cfg = MakeSvmConfig(4);
  cfg.stack = StackKind::kVanilla;
  cfg.warmup = kMillisecond;
  cfg.duration = duration;
  cfg.trace_capacity = 1 << 15;
  cfg.sample_interval = kMillisecond;
  cfg.export_trace = true;
  SloSpec spec;
  spec.selector = "L";
  spec.threshold = 30 * kMicrosecond;
  spec.window = kMillisecond;
  cfg.slos.push_back(spec);
  AddLTenants(cfg, 2);
  AddTTenants(cfg, 2);
  CapturedRun run = CaptureRun(cfg);
  const BlockingIntervals intervals(run.records);
  HolbOptions opts;
  opts.tenant_names = run.env->TenantNames();
  AttributeSloEpisodes(run.slo, HolbAnalyzer(run.records, intervals, opts));
  const TraceExportInput input = MakeExportInput(run, &run.slo);
  *records = input.requests.size();
  const uint64_t allocs_before = g_allocs;
  const std::string json = SerializeChromeTrace(input);
  const uint64_t allocs = g_allocs - allocs_before;
  EXPECT_FALSE(json.empty());
  return allocs;
}

// Allocations one KV client's set-up makes, as perfbench's kv-ycsb and
// bench_fig12_ycsb build each client: Load(`keys`), then WarmCache over four
// block caches' worth of keys.
uint64_t KvSetupAllocations(uint64_t keys) {
  ScenarioEnv env(MakeSvmConfig(2));
  Tenant& tenant =
      env.AddAppTenant("kv", "APP", IoniceClass::kBestEffort, /*core=*/0);
  AppIoContext io(&env.machine(), &env.stack(), &tenant, /*nsid=*/0);
  const KvStoreConfig kv_cfg;
  KvStore store(&io, kv_cfg, Rng(1));
  const uint64_t allocs_before = g_allocs;
  store.Load(keys);
  store.WarmCache(4 * kv_cfg.block_cache_pages);
  return g_allocs - allocs_before;
}

// Set-up is O(runs): Load's runs are key ranges with no per-key state, and
// the warm sizes the block cache's slot vector and index once, for the
// smaller of its capacity and the keys warmed. So the allocations do not
// depend on the key count.
TEST(HotPathAllocTest, KvSetupAllocationsDoNotGrowWithKeys) {
  const uint64_t small = KvSetupAllocations(5000);
  const uint64_t large = KvSetupAllocations(50000);
  const uint64_t huge = KvSetupAllocations(1000000);
  RecordProperty("kv_setup_allocs_5k", std::to_string(small));
  RecordProperty("kv_setup_allocs_50k", std::to_string(large));
  RecordProperty("kv_setup_allocs_1m", std::to_string(huge));
  EXPECT_LE(small, 16u);
  EXPECT_EQ(large, small);
  EXPECT_EQ(huge, small);
}

TEST(HotPathAllocTest, TraceExportAllocationsDoNotGrowWithRecords) {
  size_t short_records = 0;
  size_t long_records = 0;
  const uint64_t short_allocs =
      ExportAllocations(10 * kMillisecond, &short_records);
  const uint64_t long_allocs =
      ExportAllocations(80 * kMillisecond, &long_records);
  ASSERT_GT(long_records, 4 * short_records);
  RecordProperty("export_allocs", std::to_string(long_allocs));
  EXPECT_EQ(short_allocs, long_allocs)
      << short_records << " and " << long_records << " records";
}

}  // namespace
}  // namespace daredevil
