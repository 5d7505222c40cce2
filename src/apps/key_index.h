// Flat uint64_t -> value index for the apps' per-key state: the KV store's
// key locations and the LRU cache's id -> slot map.
//
// Open addressing with linear probing over a power-of-two table kept at most
// 7/8 full, Fibonacci hashing, and backward-shift deletion, so erases leave
// no tombstones to lengthen later probes. The keys here are dense ranges
// (record ids, LBAs), which Fibonacci hashing spreads almost one per slot.
// A key is any uint64_t: a slot is vacant when it holds the value `kNone`,
// which therefore can never be stored. The table grows by doubling with the
// number of live keys, never with a key's magnitude, and keeps its memory
// across Clear().
//
// Nothing can iterate it. Slot order follows the keys' hashes and the
// table's growth history; with no iteration API, the only observable results
// are per-key lookups, which match any ordered map's, so hash order cannot
// reach the simulation.
#ifndef DAREDEVIL_SRC_APPS_KEY_INDEX_H_
#define DAREDEVIL_SRC_APPS_KEY_INDEX_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/invariant.h"

namespace daredevil {

template <typename Value, Value kNone>
class KeyIndex {
 public:
  // The value stored under `key`, or nullptr. The pointer is valid until
  // the next Set, Erase, Clear or Reserve.
  const Value* Find(uint64_t key) const {
    const size_t i = SlotOf(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }
  Value* Find(uint64_t key) {
    const size_t i = SlotOf(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }

  // Stores `value` under `key`, inserting the key when absent. Returns the
  // value it replaced, or kNone when the key was absent.
  Value Set(uint64_t key, Value value) {
    DD_CHECK(value != kNone) << "KeyIndex: the vacant marker is not a value";
    if (Value* found = Find(key)) {
      return std::exchange(*found, value);
    }
    if (Full(size_ + 1)) {
      Rehash(slots_.empty() ? kMinSlots : 2 * slots_.size());
    }
    slots_[VacantSlot(key)] = Slot{key, value};
    ++size_;
    return kNone;
  }

  // Removes `key` and returns its value, or kNone when it was absent. Later
  // members of its probe run move back into the hole, so every remaining key
  // stays reachable from its home.
  Value Erase(uint64_t key) {
    size_t hole = SlotOf(key);
    if (hole == kAbsent) {
      return kNone;
    }
    const Value erased = slots_[hole].value;
    for (size_t j = (hole + 1) & mask_; slots_[j].value != kNone;
         j = (j + 1) & mask_) {
      // slots_[j] may fill the hole when the hole lies on its probe path,
      // i.e. no farther from j than its home is.
      if (((j - Home(slots_[j].key)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].value = kNone;
    --size_;
    return erased;
  }

  // Forgets every key and keeps the table.
  void Clear() {
    for (Slot& s : slots_) {
      s.value = kNone;
    }
    size_ = 0;
  }

  // Sizes the table for `n` keys in one step.
  void Reserve(size_t n) {
    if (!Full(n)) {
      return;
    }
    size_t slots = slots_.empty() ? kMinSlots : slots_.size();
    while (n * 8 > slots * 7) {
      slots *= 2;
    }
    Rehash(slots);
  }

  size_t size() const { return size_; }

 private:
  struct Slot {
    uint64_t key;
    Value value;
  };
  static constexpr size_t kAbsent = ~size_t{0};
  static constexpr size_t kMinSlots = 16;
  // 2^64 / golden ratio: consecutive keys land about 0.62 tables apart.
  static constexpr uint64_t kFibonacci = 0x9E3779B97F4A7C15ULL;

  size_t Home(uint64_t key) const { return (key * kFibonacci) >> shift_; }
  bool Full(size_t n) const { return n * 8 > slots_.size() * 7; }

  size_t SlotOf(uint64_t key) const {
    if (size_ == 0) {
      return kAbsent;
    }
    for (size_t i = Home(key); slots_[i].value != kNone; i = (i + 1) & mask_) {
      if (slots_[i].key == key) {
        return i;
      }
    }
    return kAbsent;
  }

  size_t VacantSlot(uint64_t key) const {
    size_t i = Home(key);
    while (slots_[i].value != kNone) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  void Rehash(size_t slots) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(slots, Slot{0, kNone});
    mask_ = slots - 1;
    shift_ = 64 - std::countr_zero(slots);
    for (const Slot& s : old) {
      if (s.value != kNone) {
        slots_[VacantSlot(s.key)] = s;
      }
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_APPS_KEY_INDEX_H_
