// Unit tests for the application substrates: LRU cache, AppIoContext, the
// mini LSM KV store, YCSB driver, SimpleFs, and the mailserver workload.
#include <gtest/gtest.h>

#include <memory>

#include "src/apps/kvstore.h"
#include "src/apps/lru_cache.h"
#include "src/apps/mailserver.h"
#include "src/apps/simplefs.h"
#include "src/apps/ycsb.h"
#include "src/blkmq/blkmq_stack.h"
#include "src/sim/simulator.h"

namespace daredevil {
namespace {

TEST(LruCacheTest, BasicHitMiss) {
  LruCache cache(2);
  EXPECT_FALSE(cache.Touch(1));
  cache.Insert(1);
  EXPECT_TRUE(cache.Touch(1));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache cache(2);
  cache.Insert(1);
  cache.Insert(2);
  cache.Touch(1);     // 1 is now MRU
  cache.Insert(3);    // evicts 2
  EXPECT_TRUE(cache.Touch(1));
  EXPECT_FALSE(cache.Touch(2));
  EXPECT_TRUE(cache.Touch(3));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, ReinsertPromotesWithoutGrowth) {
  LruCache cache(2);
  cache.Insert(1);
  cache.Insert(2);
  cache.Insert(1);  // promote, no duplicate
  EXPECT_EQ(cache.size(), 2u);
  cache.Insert(3);  // evicts 2 (1 was promoted)
  EXPECT_TRUE(cache.Touch(1));
  EXPECT_FALSE(cache.Touch(2));
}

TEST(LruCacheTest, EraseRemoves) {
  LruCache cache(4);
  cache.Insert(1);
  cache.Erase(1);
  EXPECT_FALSE(cache.Touch(1));
  cache.Erase(99);  // erasing a missing id is harmless
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, ZeroCapacityNeverCaches) {
  LruCache cache(0);
  cache.Insert(1);
  EXPECT_FALSE(cache.Touch(1));
}

// Fixture providing an app I/O environment over a vanilla stack.
class AppsTest : public ::testing::Test {
 protected:
  AppsTest() {
    Machine::Config machine_config;
    machine_config.num_cores = 2;
    machine_ = std::make_unique<Machine>(&sim_, machine_config);
    DeviceConfig device_config;
    device_config.nr_nsq = 4;
    device_config.nr_ncq = 4;
    device_config.namespace_pages = {1 << 18};  // 1GiB
    device_config.flash.erase_after_programs = 0;
    device_ = std::make_unique<Device>(&sim_, device_config);
    stack_ = std::make_unique<BlkMqStack>(machine_.get(), device_.get(),
                                          StackCosts{});
    tenant_.id = TenantId{1};
    tenant_.core = 0;
    stack_->OnTenantStart(&tenant_);
    io_ = std::make_unique<AppIoContext>(machine_.get(), stack_.get(), &tenant_,
                                         0);
  }

  Simulator sim_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<Device> device_;
  std::unique_ptr<BlkMqStack> stack_;
  Tenant tenant_;
  std::unique_ptr<AppIoContext> io_;
};

TEST_F(AppsTest, AppIoReadWriteRoundTrip) {
  int done = 0;
  io_->Read(0, 1, [&]() { ++done; });
  io_->Write(100, 4, /*sync=*/true, /*meta=*/false, [&]() { ++done; });
  sim_.RunUntilIdle();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(io_->reads_issued(), 1u);
  EXPECT_EQ(io_->writes_issued(), 1u);
  EXPECT_EQ(io_->pages_transferred(), 5u);
  EXPECT_EQ(io_->inflight(), 0);
}

TEST_F(AppsTest, AppIoComputeCostsCpuOnly) {
  bool done = false;
  io_->Compute(TickDuration{10 * kMicrosecond}, [&]() { done = true; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_EQ(device_->commands_completed(), 0u);
  EXPECT_GT(machine_->core(0).busy_ns(WorkLevel::kUser), kZeroDuration);
}

TEST_F(AppsTest, AppIoPoolReusesOps) {
  for (int round = 0; round < 3; ++round) {
    int done = 0;
    for (int i = 0; i < 8; ++i) {
      io_->Read(static_cast<uint64_t>(i) * 10, 1, [&]() { ++done; });
    }
    sim_.RunUntilIdle();
    EXPECT_EQ(done, 8);
  }
  EXPECT_EQ(io_->reads_issued(), 24u);
}

#if DAREDEVIL_INVARIANTS

// Applications pass their own LBAs, so every op goes through the tenant I/O
// core's shape check.
using AppsDeathTest = AppsTest;

TEST_F(AppsDeathTest, OpPastTheNamespaceEndAborts) {
  EXPECT_DEATH(io_->Read((1 << 18) - 1, 2, nullptr),
               "I/O \\[262143, 262145\\) overruns namespace 0 "
               "\\(262144 pages\\)");
}

TEST_F(AppsDeathTest, EmptyOpAborts) {
  EXPECT_DEATH(io_->Write(0, 0, /*sync=*/false, /*meta=*/false, nullptr),
               "issues empty I/Os");
}

#endif  // DAREDEVIL_INVARIANTS

TEST_F(AppsTest, KvStoreLoadInstallsKeys) {
  KvStoreConfig config;
  KvStore store(io_.get(), config, Rng(1));
  store.Load(1000);
  EXPECT_GT(store.num_sstables(), 0u);
  EXPECT_EQ(device_->commands_completed(), 0u);  // preload issues no I/O
}

TEST_F(AppsTest, KvStoreGetMissesThenHitsCache) {
  KvStoreConfig config;
  config.bloom_fp = 0.0;  // exact read counts
  KvStore store(io_.get(), config, Rng(1));
  store.Load(1000);
  bool done = false;
  store.Get(5, [&]() { done = true; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_EQ(store.cache_misses(), 1u);
  EXPECT_EQ(io_->reads_issued(), 1u);
  // Second read of the same key: cache hit, no new I/O.
  done = false;
  store.Get(5, [&]() { done = true; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_EQ(store.cache_hits(), 1u);
  EXPECT_EQ(io_->reads_issued(), 1u);
}

TEST_F(AppsTest, KvStoreGetMissingKeyNoIo) {
  KvStoreConfig config;
  KvStore store(io_.get(), config, Rng(1));
  store.Load(100);
  bool done = false;
  store.Get(999999, [&]() { done = true; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_EQ(io_->reads_issued(), 0u);
}

TEST_F(AppsTest, KvStorePutWritesWalSynchronously) {
  KvStoreConfig config;
  KvStore store(io_.get(), config, Rng(1));
  bool done = false;
  store.Put(7, [&]() { done = true; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_EQ(store.wal_appends(), 1u);
  EXPECT_EQ(io_->writes_issued(), 1u);
  EXPECT_EQ(store.memtable_size(), 1u);
  // The WAL append is FUA: durable at completion without a separate FLUSH.
  EXPECT_EQ(device_->fua_persists(), 1u);
  EXPECT_EQ(io_->flushes_issued(), 0u);
  EXPECT_EQ(device_->persisted_page_count(), 1u);
  // The put is then served from the memtable with no I/O.
  const uint64_t reads_before = io_->reads_issued();
  store.Get(7, [&]() {});
  sim_.RunUntilIdle();
  EXPECT_EQ(io_->reads_issued(), reads_before);
}

TEST_F(AppsTest, KvStoreFlushAfterMemtableFills) {
  KvStoreConfig config;
  config.memtable_entries = 16;
  KvStore store(io_.get(), config, Rng(1));
  int done = 0;
  for (uint64_t k = 0; k < 20; ++k) {
    store.Put(k, [&]() { ++done; });
    sim_.RunUntilIdle();
  }
  EXPECT_EQ(done, 20);
  EXPECT_GE(store.flushes(), 1u);
  EXPECT_GT(io_->writes_issued(), 20u);  // WAL + flush background writes
  EXPECT_LT(store.memtable_size(), 16u);
}

TEST_F(AppsTest, KvStoreCompactionMergesRuns) {
  KvStoreConfig config;
  config.memtable_entries = 8;
  config.l0_compaction_trigger = 2;
  KvStore store(io_.get(), config, Rng(1));
  int done = 0;
  for (uint64_t k = 0; k < 48; ++k) {
    store.Put(k, [&]() { ++done; });
    sim_.RunUntilIdle();
  }
  EXPECT_EQ(done, 48);
  EXPECT_GE(store.compactions(), 1u);
  EXPECT_GT(io_->reads_issued(), 0u);  // compaction reads its inputs
}

TEST_F(AppsTest, KvStoreScanReadsSequentialBlocks) {
  KvStoreConfig config;
  KvStore store(io_.get(), config, Rng(1));
  store.Load(10000);
  bool done = false;
  store.Scan(100, 40, [&]() { done = true; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(done);
  // 40 entries at 4 entries/page -> up to 10 block reads.
  EXPECT_GE(io_->reads_issued(), 2u);
  EXPECT_LE(io_->reads_issued(), 10u);
}

TEST_F(AppsTest, KvStoreRmwIsGetPlusPut) {
  KvStoreConfig config;
  config.bloom_fp = 0.0;  // exact read counts
  KvStore store(io_.get(), config, Rng(1));
  store.Load(100);
  bool done = false;
  store.ReadModifyWrite(5, [&]() { done = true; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_EQ(io_->reads_issued(), 1u);
  EXPECT_EQ(store.wal_appends(), 1u);
}

TEST_F(AppsTest, YcsbMixRatios) {
  KvStoreConfig kv_config;
  KvStore store(io_.get(), kv_config, Rng(1));
  store.Load(1000);
  YcsbConfig config;
  config.workload = 'A';
  config.record_count = 1000;
  YcsbWorkload ycsb(&store, config, Rng(7), &sim_, 0, kSecond);
  int reads = 0;
  int updates = 0;
  for (int i = 0; i < 5000; ++i) {
    const YcsbOp op = ycsb.NextOp();
    reads += op == YcsbOp::kRead ? 1 : 0;
    updates += op == YcsbOp::kUpdate ? 1 : 0;
  }
  EXPECT_EQ(reads + updates, 5000);
  EXPECT_NEAR(static_cast<double>(reads) / 5000.0, 0.5, 0.05);
}

TEST_F(AppsTest, YcsbWorkloadBMostlyReads) {
  KvStoreConfig kv_config;
  KvStore store(io_.get(), kv_config, Rng(1));
  YcsbConfig config;
  config.workload = 'B';
  config.record_count = 1000;
  YcsbWorkload ycsb(&store, config, Rng(7), &sim_, 0, kSecond);
  int reads = 0;
  for (int i = 0; i < 5000; ++i) {
    reads += ycsb.NextOp() == YcsbOp::kRead ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(reads) / 5000.0, 0.95, 0.02);
}

TEST_F(AppsTest, YcsbRunsClosedLoopAndRecords) {
  KvStoreConfig kv_config;
  KvStore store(io_.get(), kv_config, Rng(1));
  store.Load(1000);
  YcsbConfig config;
  config.workload = 'A';
  config.record_count = 1000;
  YcsbWorkload ycsb(&store, config, Rng(7), &sim_, 0, 50 * kMillisecond);
  ycsb.Start();
  sim_.RunUntil(50 * kMillisecond);
  EXPECT_GT(ycsb.total_ops(), 10u);
  EXPECT_GT(ycsb.OpCount(YcsbOp::kRead) + ycsb.OpCount(YcsbOp::kUpdate), 0u);
  EXPECT_GT(ycsb.OpLatency(YcsbOp::kRead).count() +
                ycsb.OpLatency(YcsbOp::kUpdate).count(),
            0u);
}

TEST_F(AppsTest, SimpleFsCreateAppendFsync) {
  SimpleFsConfig config;
  SimpleFs fs(io_.get(), config);
  SimpleFs::FileId id = 0;
  bool created = false;
  fs.Create([&]() { created = true; }, &id);
  sim_.RunUntilIdle();
  EXPECT_TRUE(created);
  EXPECT_TRUE(fs.Exists(id));
  EXPECT_EQ(fs.meta_writes(), 1u);
  EXPECT_EQ(device_->fua_persists(), 1u);  // the inode write is FUA

  bool appended = false;
  fs.Append(id, 4, [&]() { appended = true; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(appended);
  EXPECT_EQ(fs.FilePages(id), 4u);
  EXPECT_EQ(fs.data_write_pages(), 0u);  // cache only so far
  EXPECT_EQ(device_->persisted_page_count(), 1u);  // nothing durable yet

  bool synced = false;
  fs.Fsync(id, [&]() {
    // By acknowledgement time the whole barrier chain has run: the data
    // landed, a FLUSH persisted it, and the FUA inode write published it.
    EXPECT_GE(device_->flushes_completed(), 1u);
    EXPECT_GE(device_->fua_persists(), 2u);
    synced = true;
  });
  sim_.RunUntilIdle();
  EXPECT_TRUE(synced);
  EXPECT_EQ(fs.data_write_pages(), 4u);
  EXPECT_EQ(fs.meta_writes(), 2u);
  // Plumbing accounting: data write + two inode writes move pages; the FLUSH
  // barrier is tracked separately and moves none.
  EXPECT_EQ(io_->flushes_issued(), 1u);
  EXPECT_EQ(io_->writes_issued(), 3u);
  EXPECT_EQ(io_->pages_transferred(), 6u);
  EXPECT_EQ(device_->flushes_completed(), 1u);
  // Everything the fsync acknowledged is in the persisted set: 4 data pages
  // plus the inode page.
  EXPECT_EQ(device_->persisted_page_count(), 5u);
}

TEST_F(AppsTest, SimpleFsFsyncCleanFileWritesOnlyInode) {
  SimpleFsConfig config;
  SimpleFs fs(io_.get(), config);
  auto ids = fs.Preload(1, 4);
  bool synced = false;
  fs.Fsync(ids[0], [&]() { synced = true; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(synced);
  EXPECT_EQ(fs.data_write_pages(), 0u);
  EXPECT_EQ(fs.meta_writes(), 1u);
  // Clean-file fsync skips the FLUSH entirely; the lone FUA inode write is
  // the whole barrier.
  EXPECT_EQ(io_->flushes_issued(), 0u);
  EXPECT_EQ(device_->fua_persists(), 1u);
}

TEST_F(AppsTest, SimpleFsReadServedFromCacheAfterPreload) {
  SimpleFsConfig config;
  SimpleFs fs(io_.get(), config);
  auto ids = fs.Preload(4, 4);
  bool read = false;
  fs.Read(ids[0], [&]() { read = true; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(read);
  EXPECT_EQ(io_->reads_issued(), 0u);  // page-cache hit
}

TEST_F(AppsTest, SimpleFsReadMissesAfterEviction) {
  SimpleFsConfig config;
  config.page_cache_pages = 4;  // tiny cache
  SimpleFs fs(io_.get(), config);
  auto ids = fs.Preload(4, 4);  // 16 pages >> 4 page cache
  bool read = false;
  fs.Read(ids[0], [&]() { read = true; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(read);
  EXPECT_EQ(io_->reads_issued(), 1u);
}

TEST_F(AppsTest, SimpleFsDeleteWritesMetadataAndFrees) {
  SimpleFsConfig config;
  SimpleFs fs(io_.get(), config);
  auto ids = fs.Preload(2, 4);
  bool deleted = false;
  fs.Delete(ids[0], [&]() { deleted = true; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(deleted);
  EXPECT_FALSE(fs.Exists(ids[0]));
  EXPECT_TRUE(fs.Exists(ids[1]));
  EXPECT_EQ(fs.meta_writes(), 1u);
}

TEST_F(AppsTest, MailServerMixRoughlyMatchesConfig) {
  SimpleFsConfig fs_config;
  SimpleFs fs(io_.get(), fs_config);
  MailServerConfig config;
  config.initial_files = 64;
  MailServer mail(&fs, config, Rng(3), &sim_, 0, kSecond);
  int reads = 0;
  int composes = 0;
  const int n = 8000;
  for (int i = 0; i < n; ++i) {
    const MailOp op = mail.NextOp();
    reads += op == MailOp::kRead ? 1 : 0;
    composes += op == MailOp::kCompose ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(reads) / n, 0.50, 0.03);
  EXPECT_NEAR(static_cast<double>(composes) / n, 0.25, 0.03);
}

TEST_F(AppsTest, MailServerRunsAndRecordsFsync) {
  SimpleFsConfig fs_config;
  SimpleFs fs(io_.get(), fs_config);
  MailServerConfig config;
  config.initial_files = 64;
  MailServer mail(&fs, config, Rng(3), &sim_, 0, 100 * kMillisecond);
  mail.Start();
  sim_.RunUntil(100 * kMillisecond);
  EXPECT_GT(mail.total_ops(), 20u);
  EXPECT_GT(mail.FsyncLatency().count(), 0u);
  EXPECT_GT(mail.OpCount(MailOp::kRead), 0u);
  // The mailserver fsync path rides the real durability plumbing: dirty data
  // is flushed and the inode lands with FUA, so both device counters move.
  EXPECT_GT(device_->flushes_completed(), 0u);
  EXPECT_GT(device_->fua_persists(), 0u);
  EXPECT_GT(device_->persisted_page_count(), 0u);
  // fsync latency must exceed the cache-served stat latency.
  if (mail.OpCount(MailOp::kStat) > 0) {
    EXPECT_GT(mail.FsyncLatency().Mean(),
              mail.OpLatency(MailOp::kStat).Mean());
  }
}

}  // namespace
}  // namespace daredevil
