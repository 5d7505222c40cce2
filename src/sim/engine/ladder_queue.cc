#include "src/sim/engine/ladder_queue.h"

namespace daredevil {

// Frees the leading tombstones of fine bucket `idx`. Returns false when that
// empties the bucket.
bool LadderQueue::PurgeFineHead(uint32_t idx) {
  Chain& c = buckets_[idx];
  while (c.head != kNilEvent && arena_.slot(c.head).cancelled) {
    const uint32_t slot = c.head;
    c.head = arena_.slot(slot).next;
    arena_.Free(slot);
  }
  if (c.head == kNilEvent) {
    c.tail = kNilEvent;
    fine_bits_.Clear(idx);
    return false;
  }
  return true;
}

// Earliest live tick in the first occupied coarse bucket. Returns false (and
// frees the bucket) when it held only tombstones.
bool LadderQueue::EarliestCoarseTick(Tick* tick) {
  const auto idx = static_cast<uint32_t>(
      coarse_bits_.FirstCyclic(CoarseIndex(coarse_next_)));
  bool found = false;
  for (uint32_t slot = coarse_[idx].head; slot != kNilEvent;) {
    const EventRecord& rec = arena_.slot(slot);
    if (!rec.cancelled && (!found || rec.at < *tick)) {
      *tick = rec.at;
      found = true;
    }
    slot = rec.next;
  }
  if (!found) {
    Distribute(idx);  // frees every tombstone, appends nothing
  }
  return found;
}

// Advances the fine rung to every tick below coarse_next << kCoarseShift:
// distributes the coarse buckets below it in bucket order, then moves the
// heap events that the advanced horizon now covers. Each destination bucket
// is empty of pushes until its move, so chains stay in seq order.
void LadderQueue::Demote(uint64_t coarse_next) {
  while (!coarse_bits_.empty()) {
    const auto idx = static_cast<uint32_t>(
        coarse_bits_.FirstCyclic(CoarseIndex(coarse_next_)));
    const uint64_t coarse =
        coarse_next_ + ((idx - CoarseIndex(coarse_next_)) & (kCoarseCount - 1));
    if (coarse >= coarse_next) {
      break;
    }
    Distribute(idx);
  }
  coarse_next_ = coarse_next;
  // The heap yields (tick, seq) ascending, so these appends reproduce the
  // FIFO a direct push sequence would have built.
  while (!overflow_.empty() &&
         CoarseOf(overflow_.front().at) < coarse_next_ + kCoarseCount) {
    std::pop_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
    const OverflowEntry entry = overflow_.back();
    overflow_.pop_back();
    if (arena_.slot(entry.slot).cancelled) {
      arena_.Free(entry.slot);
      continue;
    }
    Place(entry.at, entry.slot);
  }
}

// Empties coarse bucket `coarse_idx` into the fine rung in chain (= seq)
// order, freeing tombstones on the way.
void LadderQueue::Distribute(uint32_t coarse_idx) {
  Chain& c = coarse_[coarse_idx];
  uint32_t slot = c.head;
  c = Chain{};
  coarse_bits_.Clear(coarse_idx);
  while (slot != kNilEvent) {
    EventRecord& rec = arena_.slot(slot);
    const uint32_t next = rec.next;
    if (rec.cancelled) {
      arena_.Free(slot);
    } else {
      Append(buckets_[BucketOf(rec.at)], fine_bits_, BucketOf(rec.at), slot);
    }
    slot = next;
  }
}

// Drops cancelled events off the overflow heap front so PopEarliest never
// reports a tombstone's tick.
void LadderQueue::PurgeOverflowTombstones() {
  while (!overflow_.empty() && arena_.slot(overflow_.front().slot).cancelled) {
    std::pop_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
    arena_.Free(overflow_.back().slot);
    overflow_.pop_back();
  }
}

}  // namespace daredevil
