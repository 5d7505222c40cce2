// Unit tests for the application substrates: LRU cache, AppIoContext, the
// mini LSM KV store, YCSB driver, SimpleFs, and the mailserver workload.
#include <gtest/gtest.h>

#include <iterator>
#include <list>
#include <map>
#include <memory>
#include <random>

#include "src/apps/key_index.h"
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

// The std::list + std::map LRU that the slot table replaced: the reference
// for eviction order, promotion on re-insert and hit/miss accounting.
class ReferenceLru {
 public:
  explicit ReferenceLru(size_t capacity) : capacity_(capacity) {}

  bool Touch(uint64_t id) {
    auto it = index_.find(id);
    if (it == index_.end()) {
      ++misses_;
      return false;
    }
    order_.splice(order_.begin(), order_, it->second);
    ++hits_;
    return true;
  }
  void Insert(uint64_t id) {
    if (capacity_ == 0) {
      return;
    }
    auto it = index_.find(id);
    if (it != index_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.push_front(id);
    index_[id] = order_.begin();
    if (index_.size() > capacity_) {
      index_.erase(order_.back());
      order_.pop_back();
    }
  }
  void Erase(uint64_t id) {
    auto it = index_.find(id);
    if (it != index_.end()) {
      order_.erase(it->second);
      index_.erase(it);
    }
  }
  void Clear() {
    order_.clear();
    index_.clear();
  }
  size_t size() const { return index_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  size_t capacity_;
  std::list<uint64_t> order_;
  std::map<uint64_t, std::list<uint64_t>::iterator> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// Ids for the differential tests: mostly a dense range of `span` ids, plus
// multiples of 2^40 and of 2^58 and the top of the key domain. A few of the
// 2^58 multiples share one home slot in small tables, so erases land inside
// probe runs.
uint64_t DrawId(std::mt19937_64& rng, uint64_t span) {
  switch (rng() % 8) {
    case 0:
      return (rng() % span) << 40;
    case 1:
      return (rng() % 64) << 58;
    case 2:
      return ~0ULL - rng() % 4;
    default:
      return rng() % span;
  }
}

// Seeded Touch / Insert / Erase / Clear sequences against the reference:
// every return value, size(), hits() and misses() must match, and so must
// every id's presence at the end (which also checks the final recency order,
// since each Touch promotes).
TEST(LruCacheTest, MatchesListAndMapReference) {
  for (const size_t capacity : {0, 1, 2, 3, 64, 8192}) {
    for (const uint64_t seed : {1, 2}) {
      SCOPED_TRACE(testing::Message() << "capacity " << capacity << " seed "
                                      << seed);
      std::mt19937_64 rng(seed);
      LruCache cache(capacity);
      ReferenceLru ref(capacity);
      const uint64_t span = 2 * capacity + 8;
      const size_t ops = 4000 + 16 * capacity;
      for (size_t op = 0; op < ops; ++op) {
        const uint64_t id = DrawId(rng, span);
        const uint64_t kind = rng() % 64;
        if (kind < 24) {
          ASSERT_EQ(cache.Touch(id), ref.Touch(id)) << "op " << op;
        } else if (kind < 48) {
          cache.Insert(id);
          ref.Insert(id);
        } else if (kind < 63) {
          cache.Erase(id);
          ref.Erase(id);
        } else if (rng() % 16 == 0) {
          cache.Clear();
          ref.Clear();
        }
        ASSERT_EQ(cache.size(), ref.size()) << "op " << op;
      }
      EXPECT_EQ(cache.hits(), ref.hits());
      EXPECT_EQ(cache.misses(), ref.misses());
      EXPECT_LE(cache.size(), capacity);
      for (uint64_t id = 0; id < span; ++id) {
        ASSERT_EQ(cache.Touch(id), ref.Touch(id)) << "id " << id;
      }
      for (uint64_t i = 0; i < 64; ++i) {
        ASSERT_EQ(cache.Touch(i << 58), ref.Touch(i << 58)) << "id " << i;
      }
      EXPECT_EQ(cache.hits(), ref.hits());
    }
  }
}

// KeyIndex against std::map under random Set / Erase / Find / Clear /
// Reserve over a key domain of a few hundred ids, so the table runs near
// its 7/8 load bound and erases shift probe runs back all the time.
TEST(KeyIndexTest, MatchesStdMap) {
  constexpr uint64_t kSpan = 256;
  for (const uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    KeyIndex<uint64_t, 0> index;
    std::map<uint64_t, uint64_t> ref;
    for (int op = 0; op < 30000; ++op) {
      const uint64_t key = DrawId(rng, kSpan);
      const uint64_t kind = rng() % 64;
      if (kind < 28) {
        const uint64_t value = 1 + rng() % 1000;
        auto it = ref.find(key);
        ASSERT_EQ(index.Set(key, value), it == ref.end() ? 0 : it->second)
            << "op " << op;
        ref[key] = value;
      } else if (kind < 48) {
        auto it = ref.find(key);
        ASSERT_EQ(index.Erase(key), it == ref.end() ? 0 : it->second)
            << "op " << op;
        ref.erase(key);
      } else if (kind < 62) {
        auto it = ref.find(key);
        const uint64_t* got = index.Find(key);
        ASSERT_EQ(got == nullptr, it == ref.end()) << "op " << op;
        if (got != nullptr) {
          ASSERT_EQ(*got, it->second) << "op " << op;
        }
      } else if (kind == 62) {
        index.Reserve(rng() % 512);
      } else if (rng() % 64 == 0) {
        index.Clear();
        ref.clear();
      }
      ASSERT_EQ(index.size(), ref.size()) << "op " << op;
    }
    EXPECT_GT(ref.size(), kSpan / 2);  // the table ran well loaded
    for (uint64_t key = 0; key < kSpan; ++key) {
      auto it = ref.find(key);
      const uint64_t* got = index.Find(key);
      ASSERT_EQ(got == nullptr ? 0 : *got, it == ref.end() ? 0 : it->second)
          << "key " << key;
    }
  }
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

// Keys are any uint64_t: YCSB-E inserts past the loaded range, and callers
// may use sparse keys up to the top of the domain. Each stays serveable
// through memtable flushes, an L0 compaction and a Recover. Memory follows
// the number of keys, not their values: a table sized by a key's value
// would need 2^40 entries or more here and fail with std::bad_alloc.
TEST_F(AppsTest, KvStoreKeysSpanTheWholeDomain) {
  KvStoreConfig config;
  config.memtable_entries = 4;
  config.l0_compaction_trigger = 2;
  config.bloom_fp = 0.0;
  KvStore store(io_.get(), config, Rng(1));
  store.Load(100);
  auto put = [&](uint64_t key) {
    bool done = false;
    store.Put(key, [&]() { done = true; });
    sim_.RunUntilIdle();
    ASSERT_TRUE(done) << key;
  };
  // A rewritten key sits in the memtable once.
  for (int i = 0; i < 3; ++i) {
    put(~0ULL);
  }
  EXPECT_EQ(store.memtable_size(), 1u);

  const uint64_t kKeys[] = {100,         101,          1000,     1ULL << 40,
                            ~0ULL - 1,   ~0ULL,        1ULL << 63,
                            (1ULL << 40) + 1};
  for (int round = 0; round < 2; ++round) {
    for (uint64_t key : kKeys) {
      put(key);
    }
  }
  EXPECT_GE(store.flushes(), 3u);
  EXPECT_GE(store.compactions(), 1u);
  EXPECT_LT(store.memtable_size(), config.memtable_entries);
  const uint64_t kAbsent[] = {102, 999, (1ULL << 40) + 2, ~0ULL - 2,
                              (1ULL << 63) + 1};
  auto expect_served = [&](const char* when) {
    SCOPED_TRACE(when);
    for (uint64_t key : kKeys) {
      EXPECT_TRUE(store.Contains(key)) << key;
    }
    EXPECT_TRUE(store.Contains(0));
    EXPECT_TRUE(store.Contains(99));
    for (uint64_t key : kAbsent) {
      EXPECT_FALSE(store.Contains(key)) << key;
    }
    int gets = 0;
    for (uint64_t key : kKeys) {
      store.Get(key, [&]() { ++gets; });
    }
    sim_.RunUntilIdle();
    EXPECT_EQ(gets, static_cast<int>(std::size(kKeys)));
  };
  expect_served("after flushes and a compaction");

  device_->Crash();
  const KvRecoveryReport rep = store.Recover([&](uint64_t lba) {
    return device_->PersistedAt(/*nsid=*/0, Lba{lba});
  });
  EXPECT_TRUE(rep.clean()) << "lost_acked=" << rep.lost_acked;
  // Replayed records may repeat a key; the memtable holds it once.
  EXPECT_LE(store.memtable_size(), std::size(kKeys));
  expect_served("after Recover");
  put(1ULL << 41);  // the recovered store keeps accepting writes
  EXPECT_TRUE(store.Contains(1ULL << 41));
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
