#include "src/apps/kvstore.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/core/invariant.h"

namespace daredevil {

KvStore::KvStore(AppIoContext* io, const KvStoreConfig& config, Rng rng)
    : io_(io),
      config_(config),
      rng_(rng),
      cache_(static_cast<size_t>(config.block_cache_pages)),
      wal_log_(config.wal_pages) {
  DD_CHECK(config_.value_bytes >= 1 && config_.value_bytes <= kPageBytes)
      << "KvStoreConfig: value_bytes=" << config_.value_bytes
      << " must be in [1, " << kPageBytes << "] so a block holds an entry";
  data_alloc_ = config_.wal_pages;
}

uint64_t KvStore::AllocExtent(uint64_t pages) {
  const uint64_t ns_pages = io_->namespace_pages();
  DD_CHECK(pages < ns_pages - config_.wal_pages)
      << "extent of " << pages << " pages cannot fit beside the "
      << config_.wal_pages << "-page WAL in a " << ns_pages
      << "-page namespace";
  if (data_alloc_ + pages > ns_pages) {
    data_alloc_ = config_.wal_pages;  // wrap (old extents are dead by then)
  }
  const uint64_t base = data_alloc_;
  data_alloc_ += pages;
  return base;
}

void KvStore::Load(uint64_t num_keys) {
  DD_CHECK(next_sstable_id_ == 1 && next_lsn_ == 0)
      << "KvStore::Load: the store already holds " << sstables_.size()
      << " runs and " << next_lsn_ << " Puts";
  // Install the pre-existing database as evenly sized L1 runs of
  // consecutive keys; Locate finds a key's run from its value.
  const uint64_t epp = entries_per_page();
  loaded_keys_ = num_keys;
  loaded_run_keys_ = std::max<uint64_t>(epp, num_keys / 8);
  for (uint64_t start = 0; start < num_keys; start += loaded_run_keys_) {
    const uint64_t keys = std::min(num_keys - start, loaded_run_keys_);
    SsTable table;
    table.id = next_sstable_id_++;
    table.level = 1;
    table.num_pages = std::max<uint64_t>(1, (keys + epp - 1) / epp);
    table.base_lba = AllocExtent(table.num_pages);
    sstables_.emplace(table.id, std::move(table));
  }
}

uint64_t KvStore::Locate(uint64_t key) const {
  if (const uint64_t* loc = location_.Find(key)) {
    return *loc;
  }
  return key < loaded_keys_ ? 1 + key / loaded_run_keys_ : kNoRun;
}

std::optional<uint64_t> KvStore::DataBlockOf(uint64_t key) const {
  // kMemtableLoc and kNoRun name no run.
  auto table = sstables_.find(Locate(key));
  if (table == sstables_.end()) {
    return std::nullopt;
  }
  return BlockOf(table->second, key);
}

void KvStore::WarmCache(uint64_t num_keys) {
  DD_CHECK(cache_.size() == 0) << "KvStore::WarmCache: the block cache "
                               << "already holds " << cache_.size()
                               << " blocks";
  // Inserting the keys' blocks in ascending key order would leave the last
  // `capacity` distinct blocks cached, the most recent first. Walking the
  // keys down from the last one, each new block entering as the coldest,
  // builds that state directly and stops once the cache is full.
  cache_.Reserve(num_keys);
  for (uint64_t key = num_keys; key > 0 && !cache_.full();) {
    if (const std::optional<uint64_t> block = DataBlockOf(--key)) {
      cache_.InsertColdest(*block);
    }
  }
}

void KvStore::ReadBlock(uint64_t lba, Callback done) {
  if (cache_.Touch(lba)) {
    io_->Compute(config_.cpu_per_block, std::move(done));
    return;
  }
  io_->Read(lba, 1, [this, lba, done = std::move(done)]() {
    cache_.Insert(lba);
    io_->Compute(config_.cpu_per_block, std::move(done));
  });
}

void KvStore::Get(uint64_t key, Callback done) {
  io_->Compute(config_.cpu_per_op, [this, key, done = std::move(done)]() mutable {
    const std::optional<uint64_t> block = DataBlockOf(key);
    if (!block) {
      done();  // served from the memtable, or not found: no I/O
      return;
    }
    const uint64_t lba = *block;
    // Rare bloom-filter false positive: one extra block probe first.
    if (rng_.NextBool(config_.bloom_fp) && !sstables_.empty()) {
      const uint64_t fp_lba = lba > 0 ? lba - 1 : lba + 1;
      ReadBlock(fp_lba, [this, lba, done = std::move(done)]() mutable {
        ReadBlock(lba, std::move(done));
      });
      return;
    }
    ReadBlock(lba, std::move(done));
  });
}

void KvStore::Put(uint64_t key, Callback done) {
  const uint64_t wal_lba = wal_head_;
  wal_head_ = (wal_head_ + 1) % config_.wal_pages;
  ++wal_appends_;
  const uint64_t lsn = next_lsn_++;
  // WAL append: one synchronous FUA page write — still the outlier L-request
  // of the paper's write path, but the completion now acknowledges
  // *durability*: the record is on media before the memtable insert.
  const uint64_t cid = io_->WriteFua(
      wal_lba, 1, /*meta=*/false,
      [this, key, lsn, wal_lba, done = std::move(done)]() mutable {
        WalRecord& rec = wal_log_[wal_lba];
        if (rec.written && rec.lsn == lsn) {
          rec.acked = true;
        }
        io_->Compute(config_.cpu_per_op,
                     [this, key, done = std::move(done)]() {
                       AddToMemtable(key);
                       MaybeFlush();
                       done();
                     });
      });
  wal_log_[wal_lba] = WalRecord{lsn, key, cid, /*acked=*/false, /*written=*/true};
}

void KvStore::AddToMemtable(uint64_t key) {
  if (location_.Set(key, kMemtableLoc) != kMemtableLoc) {
    memtable_.push_back(key);
  }
}

bool KvStore::Contains(uint64_t key) const {
  const uint64_t loc = Locate(key);
  return loc == kMemtableLoc || sstables_.count(loc) != 0;
}

KvRecoveryReport KvStore::Recover(const DurabilityView& view) {
  KvRecoveryReport rep;
  // The process died with the machine: all volatile state is gone. Sorted
  // runs survive only up to the last acknowledged checkpoint barrier —
  // an L0 run whose FLUSH never acked may be partially on media, so its
  // manifest entry is not trusted (its records are re-replayed from the WAL).
  // Load's runs carry no key lists: a key no surviving newer run holds
  // falls back to them through Locate.
  memtable_.clear();
  location_.Clear();
  for (auto it = sstables_.begin(); it != sstables_.end();) {
    if (it->second.seal_lsn > acked_checkpoint_lsn_) {
      const uint64_t dead = it->first;
      l0_order_.erase(std::remove(l0_order_.begin(), l0_order_.end(), dead),
                      l0_order_.end());
      it = sstables_.erase(it);
      continue;
    }
    for (uint64_t key : it->second.keys) {
      location_.Set(key, it->first);
    }
    ++it;
  }
  // Scan the WAL region against the persisted snapshot. Each record is
  // self-validating (its checksum is modeled as the persisting command's cid),
  // so torn and stale slots are rejected individually and valid records past
  // an LSN gap still replay — the gap itself is evidence of loss/reordering
  // and is reported.
  std::vector<std::pair<uint64_t, uint64_t>> valid;  // (lsn, key)
  for (uint64_t lba = 0; lba < wal_log_.size(); ++lba) {
    const WalRecord& rec = wal_log_[lba];
    if (!rec.written) {
      continue;
    }
    ++rep.scanned;
    const PersistedPageView v = view(lba);
    if (!v.present) {
      (rec.acked ? rep.lost_acked : rep.lost_unacked) += 1;
      continue;
    }
    if (v.torn) {
      ++rep.torn;
      if (rec.acked) {
        ++rep.lost_acked;  // the device acknowledged a write it tore
      }
      continue;
    }
    if (v.cid != rec.cid) {
      ++rep.stale;  // an older wrap's record: checksum mismatch for `rec`
      if (rec.acked) {
        ++rep.lost_acked;
      }
      continue;
    }
    valid.emplace_back(rec.lsn, rec.key);
  }
  std::sort(valid.begin(), valid.end());  // lsns are unique
  uint64_t expect = acked_checkpoint_lsn_;
  for (const auto& [lsn, key] : valid) {
    if (lsn < acked_checkpoint_lsn_) {
      continue;  // superseded by a checkpointed run
    }
    if (lsn != expect) {
      ++rep.reordered;  // a predecessor record is missing
      expect = lsn;
    }
    AddToMemtable(key);
    ++rep.replayed;
    ++expect;
  }
  return rep;
}

// Scan loop state lives outside any lambda so the continuation chain holds
// no self-referencing std::function (each ReadBlock callback owns the state
// only until the next hop fires).
struct KvStore::ScanState {
  uint64_t cur = 0;
  uint64_t end = 0;
  Callback done;
};

void KvStore::ScanBlocks(std::shared_ptr<ScanState> scan) {
  if (scan->cur >= scan->end) {
    scan->done();
    return;
  }
  const uint64_t cur = scan->cur++;
  ReadBlock(cur, [this, scan = std::move(scan)]() mutable {
    ScanBlocks(std::move(scan));
  });
}

void KvStore::Scan(uint64_t key, int n, Callback done) {
  io_->Compute(config_.cpu_per_op, [this, key, n, done = std::move(done)]() mutable {
    // kMemtableLoc and kNoRun name no run.
    auto table_it = sstables_.find(Locate(key));
    if (table_it != sstables_.end()) {
      const SsTable& table = table_it->second;
      const uint64_t lba = BlockOf(table, key);
      // Clamp the scan inside the run.
      const uint64_t span =
          std::max<uint64_t>(1, (static_cast<uint64_t>(n) + entries_per_page() - 1) /
                                    entries_per_page());
      const uint64_t end = std::min(lba + span, table.base_lba + table.num_pages);
      // Read the covered blocks sequentially through the cache.
      auto scan = std::make_shared<ScanState>();
      scan->cur = lba;
      scan->end = end;
      scan->done = std::move(done);
      ScanBlocks(std::move(scan));
      return;
    }
    done();  // memtable-resident or missing: CPU only
  });
}

void KvStore::ReadModifyWrite(uint64_t key, Callback done) {
  Get(key, [this, key, done = std::move(done)]() mutable {
    Put(key, std::move(done));
  });
}

void KvStore::MaybeFlush() {
  if (flush_in_progress_ || memtable_.size() < config_.memtable_entries) {
    return;
  }
  flush_in_progress_ = true;
  ++flushes_;

  SsTable table;
  table.id = next_sstable_id_++;
  table.level = 0;
  table.seal_lsn = next_lsn_;  // every record so far is in this run
  table.keys = memtable_;
  std::sort(table.keys.begin(), table.keys.end());
  memtable_.clear();
  const uint64_t epp = entries_per_page();
  table.num_pages = std::max<uint64_t>(1, (table.keys.size() + epp - 1) / epp);
  table.base_lba = AllocExtent(table.num_pages);
  for (uint64_t key : table.keys) {
    location_.Set(key, table.id);
  }
  const uint64_t base = table.base_lba;
  const uint64_t pages = table.num_pages;
  const uint64_t id = table.id;
  const uint64_t seal = table.seal_lsn;
  sstables_.emplace(id, std::move(table));

  BackgroundJob(0, 0, base, pages, [this, id, seal]() {
    // The run's data writes are only in the device write cache; a FLUSH
    // barrier makes them durable, and only its acknowledgement advances the
    // checkpoint (an unacked checkpoint leaves the WAL authoritative).
    io_->Flush([this, id, seal]() {
      acked_checkpoint_lsn_ = std::max(acked_checkpoint_lsn_, seal);
      l0_order_.push_back(id);
      flush_in_progress_ = false;
      MaybeCompact();
    });
  });
}

void KvStore::MaybeCompact() {
  if (compaction_in_progress_ ||
      l0_order_.size() < static_cast<size_t>(config_.l0_compaction_trigger)) {
    return;
  }
  compaction_in_progress_ = true;
  ++compactions_;

  const uint64_t a_id = l0_order_[0];
  const uint64_t b_id = l0_order_[1];
  l0_order_.erase(l0_order_.begin(), l0_order_.begin() + 2);
  SsTable a = std::move(sstables_.at(a_id));
  SsTable b = std::move(sstables_.at(b_id));
  sstables_.erase(a_id);
  sstables_.erase(b_id);

  SsTable merged;
  merged.id = next_sstable_id_++;
  merged.level = 1;
  // Inputs were checkpointed, so the merge output inherits their seal: its
  // records are already covered by the acked checkpoint (the rewrite itself
  // is not barriered — a crash mid-compaction is outside this model's scope).
  merged.seal_lsn = std::max(a.seal_lsn, b.seal_lsn);
  for (const SsTable* src : {&a, &b}) {
    for (uint64_t key : src->keys) {
      uint64_t* loc = location_.Find(key);
      if (loc != nullptr && *loc == src->id) {
        merged.keys.push_back(key);
        *loc = merged.id;
      }
    }
  }
  const uint64_t epp = entries_per_page();
  merged.num_pages = std::max<uint64_t>(1, (merged.keys.size() + epp - 1) / epp);
  merged.base_lba = AllocExtent(merged.num_pages);

  const uint64_t read_base = a.base_lba;
  const uint64_t read_pages = a.num_pages + b.num_pages;
  const uint64_t write_base = merged.base_lba;
  const uint64_t write_pages = merged.num_pages;
  sstables_.emplace(merged.id, std::move(merged));

  BackgroundJob(read_base, read_pages, write_base, write_pages, [this]() {
    compaction_in_progress_ = false;
    MaybeCompact();
  });
}

void KvStore::BackgroundJob(uint64_t read_base, uint64_t read_pages,
                            uint64_t write_base, uint64_t write_pages,
                            Callback done) {
  if (read_pages == 0 && write_pages == 0) {
    done();
    return;
  }
  struct Job {
    uint64_t read_next, read_end;
    uint64_t write_next, write_end;
    int outstanding = 0;
    Callback done;
    // Holds the job weakly: the in-flight chunks' callbacks own it, so a job
    // abandoned mid-flight (a crash) is freed with them instead of leaking
    // through a self-reference.
    std::function<void()> pump;
  };
  auto job = std::make_shared<Job>();
  job->read_next = read_base;
  job->read_end = read_base + read_pages;
  job->write_next = write_base;
  job->write_end = write_base + write_pages;
  job->done = std::move(done);

  const uint64_t ns_pages = io_->namespace_pages();
  job->pump = [this, weak = std::weak_ptr<Job>(job), ns_pages]() {
    const std::shared_ptr<Job> job = weak.lock();
    while (job->outstanding < config_.flush_iodepth &&
           (job->read_next < job->read_end || job->write_next < job->write_end)) {
      const bool is_read = job->read_next < job->read_end;
      uint64_t& next = is_read ? job->read_next : job->write_next;
      const uint64_t end = is_read ? job->read_end : job->write_end;
      uint64_t lba = next % ns_pages;
      uint32_t chunk = static_cast<uint32_t>(
          std::min<uint64_t>(config_.flush_chunk_pages, end - next));
      chunk = static_cast<uint32_t>(std::min<uint64_t>(chunk, ns_pages - lba));
      next += chunk;
      ++job->outstanding;
      auto on_done = [job]() {
        --job->outstanding;
        if (job->outstanding == 0 && job->read_next >= job->read_end &&
            job->write_next >= job->write_end) {
          Callback finished = std::move(job->done);
          finished();
          return;
        }
        job->pump();
      };
      if (is_read) {
        io_->Read(lba, chunk, on_done);
      } else {
        io_->Write(lba, chunk, /*sync=*/false, /*meta=*/false, on_done);
      }
    }
  };
  job->pump();
}

}  // namespace daredevil
