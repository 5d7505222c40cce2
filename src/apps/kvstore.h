// Mini LSM-tree key-value store (the RocksDB stand-in for the YCSB
// experiments, §7.4).
//
// Write path: WAL append (one synchronous 4KB write - an outlier L-request
// in Daredevil terms) + memtable insert; full memtables flush to new
// sorted-run "SSTables" with large sequential background writes, and L0 runs
// are compacted by background read+write jobs. Read path: memtable, then
// block cache (LRU), then a single data-block read from the run holding the
// key (a perfect-bloom location index models the filters; false positives add
// rare extra reads). This reproduces the paper's observation that YCSB
// read-mostly workloads are CPU/cache-bound while update-heavy workloads
// exercise the storage stack.
//
// Per-key state exists only for keys written since the load: Load's runs
// are dense key ranges, run i holding keys [i * run_keys, (i + 1) *
// run_keys). One KeyIndex maps each key written since then to the flushed
// or compacted run that holds it, or to kMemtableLoc, which is the
// memtable's only membership record; Locate falls back to the pre-loaded
// run for a key the index does not hold. The memtable itself is an
// unsorted vector of its unique keys, sorted when it flushes (the order
// std::map gave). Flushed and compacted runs keep sorted key lists, which
// Recover re-indexes. The index is never iterated, so its hash order
// cannot reach the simulation: every walk over keys goes through a run's
// sorted key vector, the memtable's sorted keys, a key range, or the WAL
// slots in ascending LBA.
#ifndef DAREDEVIL_SRC_APPS_KVSTORE_H_
#define DAREDEVIL_SRC_APPS_KVSTORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/apps/app_io.h"
#include "src/apps/key_index.h"
#include "src/apps/lru_cache.h"
#include "src/sim/rng.h"

namespace daredevil {

struct KvStoreConfig {
  uint32_t value_bytes = 1024;       // ~4 entries per 4KB block
  uint64_t memtable_entries = 4096;  // flush threshold // ddanalyze: units-ok(entry count, not bytes)
  int l0_compaction_trigger = 4;     // L0 run count that triggers compaction
  uint64_t block_cache_pages = 8192; // 32MB LRU block cache
  uint64_t wal_pages = 4096;         // circular WAL region // ddanalyze: units-ok(page count, not bytes)
  int flush_iodepth = 4;             // background-job queue depth
  uint32_t flush_chunk_pages = 32;   // background I/O size (128KB)
  double bloom_fp = 0.01;            // filter false-positive rate
  TickDuration cpu_per_op{2 * kMicrosecond};     // hashing/memtable work
  TickDuration cpu_per_block{1 * kMicrosecond};  // block decode
};

// What KvStore::Recover found in the WAL region. `clean()` is the headline
// durability invariant: no acknowledged Put may be missing or corrupt.
struct KvRecoveryReport {
  uint64_t scanned = 0;       // WAL slots examined
  uint64_t replayed = 0;      // records rebuilt into the memtable
  uint64_t torn = 0;          // per-record checksum caught a partial persist
  uint64_t stale = 0;         // slot still held an older record (cid mismatch)
  uint64_t lost_unacked = 0;  // unacknowledged records lost (benign)
  uint64_t lost_acked = 0;    // acknowledged records missing/corrupt: violation
  uint64_t reordered = 0;     // valid records found past an LSN gap
  bool clean() const { return lost_acked == 0; }
};

class KvStore {
 public:
  using Callback = std::function<void()>;

  KvStore(AppIoContext* io, const KvStoreConfig& config, Rng rng);

  // Instantly installs a pre-existing database of keys [0, num_keys) as L1
  // runs (no simulated I/O), modelling YCSB's pre-loaded table. The store
  // must be new: no run and no Put before it.
  void Load(uint64_t num_keys);
  // Seeds the empty block cache as Inserts of the data blocks of keys 0, 1,
  // ..., num_keys - 1 (the zipfian-hottest ones) would, modelling a warmed
  // cache; bounded by the cache capacity.
  void WarmCache(uint64_t num_keys);

  void Get(uint64_t key, Callback done);
  void Put(uint64_t key, Callback done);
  // Post-crash recovery: forgets all volatile state (memtable, un-checkpointed
  // L0 runs), then scans the circular WAL region against the device's
  // persisted snapshot — per-record checksums (modeled as a cid match on the
  // persisted page) reject torn and stale slots, LSN gaps flag reordering —
  // and rebuilds the memtable from every valid record past the last
  // acknowledged checkpoint. Call only after the device crashed; Recover
  // issues no I/O. The process that launched the store's in-flight work
  // died with the machine: what of it completes later has no effect and
  // never calls its `done`, and the recovered store runs on.
  KvRecoveryReport Recover(const DurabilityView& view);
  // True when `key` is serveable (memtable or a live sorted run).
  DD_OBSERVER bool Contains(uint64_t key) const;
  // Reads ~n consecutive entries starting at key.
  void Scan(uint64_t key, int n, Callback done);
  void ReadModifyWrite(uint64_t key, Callback done);

  uint64_t entries_per_page() const { return kPageBytes / config_.value_bytes; }
  uint64_t cache_hits() const { return cache_.hits(); }
  uint64_t cache_misses() const { return cache_.misses(); }
  uint64_t wal_appends() const { return wal_appends_; }
  uint64_t acked_checkpoint_lsn() const { return acked_checkpoint_lsn_; }
  uint64_t flushes() const { return flushes_; }
  uint64_t compactions() const { return compactions_; }
  size_t num_sstables() const { return sstables_.size(); }
  size_t memtable_size() const { return memtable_.size(); }

 private:
  static constexpr uint64_t kMemtableLoc = ~0ULL;
  // Run ids start at 1, so 0 marks a vacant location_ slot.
  static constexpr uint64_t kNoRun = 0;

  struct SsTable {
    uint64_t id = 0;
    uint64_t base_lba = 0;
    uint64_t num_pages = 0;
    int level = 0;
    // WAL records with lsn < seal_lsn are superseded by this run. A run is
    // durable once the checkpoint barrier behind it acked
    // (seal_lsn <= acked_checkpoint_lsn_); recovery drops the rest.
    uint64_t seal_lsn = 0;
    std::vector<uint64_t> keys;
  };

  // The writer's intent for one WAL slot: what recovery must find there. The
  // cid doubles as the record checksum — the persisted page validates iff it
  // carries this cid intact.
  struct WalRecord {
    uint64_t lsn = 0;
    uint64_t key = 0;
    uint64_t cid = 0;
    bool acked = false;  // the FUA completion reached the application
    bool written = false;  // the slot has held a record since start-up
  };

  // Wraps a continuation so that it runs only if no Recover came between
  // its launch and its call (see Recover).
  template <typename F>
  auto Live(F fn) {
    return [this, epoch = epoch_, fn = std::move(fn)]() mutable {
      if (epoch == epoch_) {
        fn();
      }
    };
  }

  uint64_t BlockOf(const SsTable& table, uint64_t key) const {
    return table.base_lba + key % table.num_pages;
  }
  // Where `key` is served from: its location_ entry (a run id or
  // kMemtableLoc), else the pre-loaded run that holds it, else kNoRun.
  uint64_t Locate(uint64_t key) const;
  // The data block of `key` in the run it is located in, or nullopt when
  // the key is memtable-resident or missing.
  std::optional<uint64_t> DataBlockOf(uint64_t key) const;
  uint64_t AllocExtent(uint64_t pages);
  void ReadBlock(uint64_t lba, Callback done);
  struct ScanState;
  void ScanBlocks(std::shared_ptr<ScanState> scan);
  // Records `key` as memtable-resident (once, however often it is written).
  void AddToMemtable(uint64_t key);
  void MaybeFlush();
  void MaybeCompact();
  // Drives a background sequential job of `pages` pages; read-then-write jobs
  // pass both spans. Calls done once every chunk completed.
  void BackgroundJob(uint64_t read_base, uint64_t read_pages, uint64_t write_base,
                     uint64_t write_pages, Callback done);

  AppIoContext* io_;
  KvStoreConfig config_;
  Rng rng_;
  LruCache cache_;

  std::vector<uint64_t> memtable_;  // unique keys, unsorted
  // Keys written since Load -> sstable id or kMemtableLoc.
  KeyIndex<uint64_t, kNoRun> location_;
  std::map<uint64_t, SsTable> sstables_;
  // Load's runs: ids 1, 2, ... hold keys [0, loaded_keys_) in ascending
  // ranges of loaded_run_keys_ keys, and keep no key lists.
  uint64_t loaded_keys_ = 0;
  uint64_t loaded_run_keys_ = 1;
  std::vector<uint64_t> l0_order_;  // oldest first
  uint64_t next_sstable_id_ = 1;

  uint64_t wal_head_ = 0;
  uint64_t next_lsn_ = 0;
  uint64_t acked_checkpoint_lsn_ = 0;
  std::vector<WalRecord> wal_log_;  // wal slot (lba) -> latest intent
  uint64_t data_alloc_ = 0;
  bool flush_in_progress_ = false;
  bool compaction_in_progress_ = false;
  uint64_t epoch_ = 0;  // Recovers so far

  uint64_t wal_appends_ = 0;
  uint64_t flushes_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_APPS_KVSTORE_H_
