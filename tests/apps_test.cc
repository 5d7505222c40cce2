// Unit tests for the application substrates: LRU cache, AppIoContext, the
// mini LSM KV store, YCSB driver, SimpleFs, and the mailserver workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>

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

// A cache filled in one pass, InsertColdest from the last id back until it
// is full (KvStore::WarmCache's walk), must equal one filled by Inserts of
// the same ids in order: the same ids in the same recency order, so every
// later hit, miss and eviction agrees. The ids repeat, as a run's blocks do
// across its keys.
TEST(LruCacheTest, OnePassWarmEqualsForwardInserts) {
  for (const size_t capacity : {0, 1, 2, 3, 64}) {
    for (const size_t n : {size_t{0}, size_t{1}, capacity / 2, 5 * capacity + 3}) {
      SCOPED_TRACE(testing::Message() << "capacity " << capacity << " ids "
                                      << n);
      std::mt19937_64 rng(capacity * 131 + n);
      const uint64_t span = capacity + 5;
      std::vector<uint64_t> ids(n);
      for (uint64_t& id : ids) {
        id = rng() % span;
      }
      LruCache forward(capacity);
      for (const uint64_t id : ids) {
        forward.Insert(id);
      }
      LruCache warm(capacity);
      warm.Reserve(ids.size());
      for (size_t i = ids.size(); i > 0 && !warm.full();) {
        warm.InsertColdest(ids[--i]);
      }
      ASSERT_EQ(warm.size(), forward.size());
      // Recency order: after j fresh inserts, the same j ids are gone.
      for (size_t j = 0; j <= capacity; ++j) {
        LruCache f = forward;
        LruCache w = warm;
        for (uint64_t fresh = 0; fresh < j; ++fresh) {
          f.Insert(span + fresh);
          w.Insert(span + fresh);
        }
        for (uint64_t id = 0; id < span; ++id) {
          ASSERT_EQ(w.Touch(id), f.Touch(id)) << "id " << id << ", " << j
                                              << " fresh inserts";
        }
      }
      // A follow-up mix of lookups and inserts over a wider span.
      for (int op = 0; op < 2000; ++op) {
        const uint64_t id = rng() % (2 * span);
        if (rng() % 2 == 0) {
          ASSERT_EQ(warm.Touch(id), forward.Touch(id)) << "op " << op;
        } else {
          warm.Insert(id);
          forward.Insert(id);
        }
      }
      EXPECT_EQ(warm.hits(), forward.hits());
      EXPECT_EQ(warm.misses(), forward.misses());
      EXPECT_EQ(warm.size(), forward.size());
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

// Vanilla blk-mq that logs the LBA of every read it routes.
class ReadLoggingStack : public BlkMqStack {
 public:
  using BlkMqStack::BlkMqStack;
  std::vector<uint64_t> reads;

 protected:
  int RouteRequest(Request* rq) override {
    if (!rq->is_write && !rq->is_flush) {
      reads.push_back(rq->lba.value());
    }
    return BlkMqStack::RouteRequest(rq);
  }
};

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
    stack_ = std::make_unique<ReadLoggingStack>(machine_.get(), device_.get(),
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
  std::unique_ptr<ReadLoggingStack> stack_;
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

// Load's runs keep no per-key state: a key resolves to its location_ entry
// when it was written since the load, and otherwise falls back to the
// pre-loaded run that holds it. Every key in [0, kLoaded + 20) is checked
// through Contains and through the block its Get reads (no block cache, so
// every run-resident Get reads one) after the load, in the memtable, after
// a flush and an L0 compaction, and after a Recover that drops an L0 run
// whose flush barrier never acked.
TEST_F(AppsTest, KvStoreKeysFallBackToTheirPreloadedRun) {
  constexpr uint64_t kLoaded = 100;
  constexpr uint64_t kKeys = kLoaded + 20;
  KvStoreConfig config;
  config.memtable_entries = 8;
  config.l0_compaction_trigger = 2;
  config.block_cache_pages = 0;
  config.bloom_fp = 0.0;
  KvStore store(io_.get(), config, Rng(1));
  store.Load(kLoaded);

  // The block each Get reads, or nullopt when it reads none.
  auto get_read = [&](uint64_t key) -> std::optional<uint64_t> {
    const size_t before = stack_->reads.size();
    bool done = false;
    store.Get(key, [&]() { done = true; });
    sim_.RunUntilIdle();
    EXPECT_TRUE(done) << key;
    EXPECT_LE(stack_->reads.size(), before + 1) << key;
    if (stack_->reads.size() == before) {
      return std::nullopt;
    }
    return stack_->reads.back();
  };
  std::vector<uint64_t> preloaded_block(kLoaded);
  for (uint64_t key = 0; key < kLoaded; ++key) {
    const std::optional<uint64_t> block = get_read(key);
    ASSERT_TRUE(block.has_value()) << key;
    preloaded_block[key] = *block;
  }
  const uint64_t last_preloaded_block =
      *std::max_element(preloaded_block.begin(), preloaded_block.end());

  enum class Where { kPreloaded, kNewerRun, kMemtable };
  std::map<uint64_t, Where> written;  // keys written since the load
  auto where = [&](uint64_t key) -> std::optional<Where> {
    auto it = written.find(key);
    if (it != written.end()) {
      return it->second;
    }
    return key < kLoaded ? std::optional<Where>(Where::kPreloaded)
                         : std::nullopt;
  };
  auto expect_contains = [&]() {
    for (uint64_t key = 0; key < kKeys; ++key) {
      EXPECT_EQ(store.Contains(key), where(key).has_value()) << key;
    }
  };
  auto expect_reads = [&]() {
    for (uint64_t key = 0; key < kKeys; ++key) {
      const std::optional<uint64_t> block = get_read(key);
      const std::optional<Where> w = where(key);
      if (!w || *w == Where::kMemtable) {
        EXPECT_FALSE(block.has_value()) << key;
      } else if (*w == Where::kPreloaded) {
        EXPECT_EQ(block, preloaded_block[key]) << key;
      } else {  // newer runs lie past Load's extents
        ASSERT_TRUE(block.has_value()) << key;
        EXPECT_GT(*block, last_preloaded_block) << key;
      }
    }
  };
  std::set<uint64_t> memtable;
  auto put = [&](uint64_t key) {
    bool done = false;
    store.Put(key, [&]() { done = true; });
    sim_.RunUntilIdle();
    ASSERT_TRUE(done) << key;
    written[key] = Where::kMemtable;
    memtable.insert(key);
    if (memtable.size() == config.memtable_entries) {  // flushed
      for (uint64_t k : memtable) {
        written[k] = Where::kNewerRun;
      }
      memtable.clear();
    }
  };

  {
    SCOPED_TRACE("after the load");
    expect_contains();
    expect_reads();
  }
  for (uint64_t key : {3, 15, 27, 40, 99, 100, 105, 119}) {
    put(key);
  }
  EXPECT_EQ(store.flushes(), 1u);
  for (uint64_t key : {0, 11, 12, 50}) {
    put(key);
  }
  {
    SCOPED_TRACE("after a flush, with keys in the memtable");
    expect_contains();
    expect_reads();
  }
  for (uint64_t key : {98, 101, 110, 3}) {
    put(key);
  }
  EXPECT_EQ(store.flushes(), 2u);
  EXPECT_EQ(store.compactions(), 1u);
  {
    SCOPED_TRACE("after an L0 compaction");
    expect_contains();
    expect_reads();
  }

  // The eighth Put fills the memtable and flushes a third run; the machine
  // crashes before that run's flush barrier acks, so Recover drops the run
  // and replays its keys from the WAL into the memtable.
  const uint64_t kLastBatch[] = {4, 15, 60, 102, 111, 118, 7, 99};
  for (size_t i = 0; i + 1 < std::size(kLastBatch); ++i) {
    put(kLastBatch[i]);
  }
  bool acked = false;
  store.Put(kLastBatch[std::size(kLastBatch) - 1], [&]() { acked = true; });
  while (!acked && sim_.Step()) {
  }
  ASSERT_TRUE(acked);
  EXPECT_EQ(store.flushes(), 3u);
  EXPECT_EQ(store.num_sstables(), 1 + (kLoaded + 11) / 12 + 1u);
  device_->Crash();
  const KvRecoveryReport rep = store.Recover([&](uint64_t lba) {
    return device_->PersistedAt(/*nsid=*/0, Lba{lba});
  });
  EXPECT_TRUE(rep.clean()) << "lost_acked=" << rep.lost_acked;
  EXPECT_EQ(rep.replayed, std::size(kLastBatch));
  EXPECT_EQ(store.num_sstables(), 1 + (kLoaded + 11) / 12);
  for (uint64_t key : kLastBatch) {
    written[key] = Where::kMemtable;
  }
  EXPECT_EQ(store.memtable_size(), std::size(kLastBatch));
  SCOPED_TRACE("after a Recover that dropped an L0 run");
  expect_contains();
  // The cut-short flush job's late completions, which the simulator runs
  // with the Gets, have no effect: its process died in the crash.
  expect_reads();
}

#if DAREDEVIL_INVARIANTS

TEST_F(AppsDeathTest, KvStoreLoadOnANonEmptyStoreAborts) {
  KvStoreConfig config;
  KvStore loaded(io_.get(), config, Rng(1));
  loaded.Load(100);
  EXPECT_DEATH(loaded.Load(100),
               "KvStore::Load: the store already holds 9 runs and 0 Puts");
  KvStore written(io_.get(), config, Rng(1));
  written.Put(7, nullptr);
  EXPECT_DEATH(written.Load(100),
               "KvStore::Load: the store already holds 0 runs and 1 Puts");
}

TEST_F(AppsDeathTest, KvStoreWarmCacheOnANonEmptyCacheAborts) {
  KvStoreConfig config;
  KvStore store(io_.get(), config, Rng(1));
  store.Load(1000);
  store.WarmCache(10);
  EXPECT_DEATH(store.WarmCache(10),
               "KvStore::WarmCache: the block cache already holds 10 blocks");
}

TEST_F(AppsDeathTest, KvStoreBadValueBytesAborts) {
  for (const uint64_t value_bytes : {uint64_t{0}, kPageBytes + 1}) {
    KvStoreConfig config;
    config.value_bytes = static_cast<uint32_t>(value_bytes);
    EXPECT_DEATH(KvStore(io_.get(), config, Rng(1)),
                 "value_bytes=" + std::to_string(value_bytes) +
                     " must be in \\[1, 4096\\]");
  }
}

TEST_F(AppsDeathTest, YcsbGeneratorOfAnotherShapeAborts) {
  KvStoreConfig kv_config;
  KvStore store(io_.get(), kv_config, Rng(1));
  YcsbConfig config;
  config.record_count = 1000;
  const ZipfianGenerator zipf(999, config.zipf_theta);
  EXPECT_DEATH(YcsbWorkload(&store, config, zipf, Rng(7), &sim_, 0, kSecond),
               "YCSB key generator spans 999 keys");
}

#endif  // DAREDEVIL_INVARIANTS

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
