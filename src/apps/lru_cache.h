// Fixed-capacity LRU set of page ids, used for the KV store's block cache and
// the file system's page cache.
//
// Ids live in a slot table: each slot holds one id and intrusive prev/next
// links of the recency list (head = most recently used), and a flat
// KeyIndex maps id -> slot. The table grows to at most `capacity` slots;
// after that a miss reuses the least recently used id's slot, so inserts,
// hits and evictions allocate nothing. A cache that is warmed in one pass
// (Reserve, then InsertColdest) sizes both tables once instead of doubling
// them as it fills. The index is never iterated (its slot order is hash
// order); recency order lives only in the links, so runs stay deterministic.
#ifndef DAREDEVIL_SRC_APPS_LRU_CACHE_H_
#define DAREDEVIL_SRC_APPS_LRU_CACHE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/apps/key_index.h"

namespace daredevil {

class LruCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity) {
    DD_CHECK(capacity < kNil) << "LruCache: slot links are 32-bit";
  }

  // Returns true (and promotes to MRU) when the id is cached.
  bool Touch(uint64_t id) {
    const uint32_t* slot = index_.Find(id);
    if (slot == nullptr) {
      ++misses_;
      return false;
    }
    MoveToFront(*slot);
    ++hits_;
    return true;
  }

  void Insert(uint64_t id) {
    if (capacity_ == 0) {
      return;
    }
    if (const uint32_t* slot = index_.Find(id)) {
      MoveToFront(*slot);
      return;
    }
    const uint32_t slot = full() ? EvictColdest() : NewSlot();
    slots_[slot].id = id;
    PushFront(slot);
    index_.Set(id, slot);
  }

  // Caches `id` as the least recently used id; an id already cached keeps
  // its place. The cache must not be full. Calling it with the ids of a
  // sequence of Inserts from the last one back, until the cache is full,
  // leaves the state those Inserts leave in an empty cache: the last
  // `capacity` distinct ids, the most recently inserted first.
  void InsertColdest(uint64_t id) {
    DD_CHECK(!full()) << "LruCache: InsertColdest into a full cache of "
                      << capacity_ << " ids";
    if (index_.Find(id) != nullptr) {
      return;
    }
    const uint32_t slot = NewSlot();
    slots_[slot].id = id;
    PushBack(slot);
    index_.Set(id, slot);
  }

  // Sizes the slot table and the index once for min(n, capacity) ids.
  void Reserve(size_t n) {
    n = std::min(n, capacity_);
    slots_.reserve(n);
    index_.Reserve(n);
  }

  void Erase(uint64_t id) {
    const uint32_t slot = index_.Erase(id);
    if (slot == kNil) {
      return;
    }
    Unlink(slot);
    slots_[slot].next = free_;
    free_ = slot;
  }

  // Drops every cached id (a crashed machine's page cache is volatile);
  // hit/miss accounting is preserved.
  void Clear() {
    index_.Clear();
    slots_.clear();
    head_ = tail_ = free_ = kNil;
  }

  size_t size() const { return index_.size(); }
  size_t capacity() const { return capacity_; }
  bool full() const { return size() >= capacity_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  static constexpr uint32_t kNil = ~uint32_t{0};

  struct Slot {
    uint64_t id = 0;
    uint32_t prev = kNil;  // toward the head (more recently used)
    uint32_t next = kNil;  // toward the tail; the free list's link
  };

  void Unlink(uint32_t s) {
    const Slot& n = slots_[s];
    (n.prev == kNil ? head_ : slots_[n.prev].next) = n.next;
    (n.next == kNil ? tail_ : slots_[n.next].prev) = n.prev;
  }
  void PushFront(uint32_t s) {
    slots_[s].prev = kNil;
    slots_[s].next = head_;
    (head_ == kNil ? tail_ : slots_[head_].prev) = s;
    head_ = s;
  }
  void PushBack(uint32_t s) {
    slots_[s].prev = tail_;
    slots_[s].next = kNil;
    (tail_ == kNil ? head_ : slots_[tail_].next) = s;
    tail_ = s;
  }
  // Drops the least recently used id and returns its slot.
  uint32_t EvictColdest() {
    const uint32_t s = tail_;
    Unlink(s);
    index_.Erase(slots_[s].id);
    return s;
  }
  // A vacant slot: an erased one, or a new one at the end of the table.
  uint32_t NewSlot() {
    if (free_ != kNil) {
      return std::exchange(free_, slots_[free_].next);
    }
    slots_.emplace_back();
    return static_cast<uint32_t>(slots_.size() - 1);
  }
  void MoveToFront(uint32_t s) {
    if (s != head_) {
      Unlink(s);
      PushFront(s);
    }
  }

  size_t capacity_;
  std::vector<Slot> slots_;
  KeyIndex<uint32_t, kNil> index_;  // id -> slot
  uint32_t head_ = kNil;
  uint32_t tail_ = kNil;
  uint32_t free_ = kNil;  // erased slots, linked through `next`
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_APPS_LRU_CACHE_H_
