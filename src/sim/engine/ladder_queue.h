// Two-rung ladder (calendar) queue over an overflow heap, the DES core's
// event queue.
//
// Geometry (one tick = one nanosecond):
//   * fine rung: kBucketCount = 2^16 one-tick buckets indexed tick mod 2^16,
//     for ticks in [window_start_, fine_end), window_start_ being the last
//     popped tick;
//   * coarse rung: kCoarseCount = 4096 buckets of kCoarseTicks = 2^14 ticks
//     (16.4 us) indexed (tick >> 14) mod 4096, for the next ~67 ms;
//   * overflow: a (tick, seq) binary heap for everything further out.
// fine_end is the start of the first coarse bucket whose whole range does
// not yet fit the fine window: as the clock advances, each coarse bucket is
// distributed into the fine rung as soon as it fits, and heap events move
// into the coarse buckets entering its horizon. Each pop slides the window
// to the popped tick; buckets behind the clock are empty, so both rungs
// re-purpose vacated buckets without moving a chain. A push is an O(1)
// append to whichever rung covers its tick; occupancy bitmaps find the next
// non-empty bucket with a few count-trailing-zero instructions.
//
// Ordering guarantee: events fire in strictly non-decreasing tick order;
// events at equal ticks fire in schedule (seq) order - the exact total order
// of a binary heap on (tick, seq). A tick only ever moves heap -> coarse ->
// fine, and each move happens before any push can target the tick's new
// rung: heap events enter a coarse bucket in (tick, seq) order the moment it
// joins the horizon, and a coarse chain (push order) is distributed whole the
// moment it fits the fine window. So every chain is in seq order. Cancelled
// events leave a tombstone purged lazily when the dispatch cursor reaches it.
#ifndef DAREDEVIL_SRC_SIM_ENGINE_LADDER_QUEUE_H_
#define DAREDEVIL_SRC_SIM_ENGINE_LADDER_QUEUE_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/invariant.h"
#include "src/sim/clock.h"
#include "src/sim/engine/event_arena.h"
#include "src/sim/engine/event_fn.h"
#include "src/sim/engine/timer_handle.h"

namespace daredevil {

// Three-level occupancy bitmap over kBits buckets: a bit per bucket, a bit
// per l0 word, a bit per l1 word.
template <uint32_t kBits>
class OccupancyBitmap {
  // Buckets summarized by one l1 word (64 l0 words of 64 bits).
  static constexpr uint32_t kL1Span = 64 * 64;
  static_assert(kBits % kL1Span == 0 && kBits <= 64 * kL1Span);

 public:
  bool empty() const { return l2_ == 0; }

  void Set(uint32_t idx) {
    l0_[idx >> 6] |= 1ull << (idx & 63);
    l1_[idx >> 12] |= 1ull << ((idx >> 6) & 63);
    l2_ |= 1ull << (idx >> 12);
  }

  void Clear(uint32_t idx) {
    if ((l0_[idx >> 6] &= ~(1ull << (idx & 63))) == 0) {
      if ((l1_[idx >> 12] &= ~(1ull << ((idx >> 6) & 63))) == 0) {
        l2_ &= ~(1ull << (idx >> 12));
      }
    }
  }

  // First set bit in cyclic order starting at `start`, or -1 when empty.
  int FirstCyclic(uint32_t start) const {
    if (l2_ == 0) {
      return -1;
    }
    const int hit = FirstAtOrAfter(start);
    return hit >= 0 ? hit : FirstAtOrAfter(0);
  }

 private:
  // First set bit at or after `from` (linear index order), or -1.
  int FirstAtOrAfter(uint32_t from) const {
    uint32_t w0 = from >> 6;
    const uint64_t word = l0_[w0] & (~0ull << (from & 63));
    if (word != 0) {
      return static_cast<int>((w0 << 6) + static_cast<uint32_t>(std::countr_zero(word)));
    }
    uint32_t w1 = w0 >> 6;
    const uint64_t word1 = l1_[w1] & ~(~0ull >> (63 - (w0 & 63)));  // bits > w0&63
    if (word1 != 0) {
      w0 = (w1 << 6) + static_cast<uint32_t>(std::countr_zero(word1));
      return static_cast<int>((w0 << 6) +
                              static_cast<uint32_t>(std::countr_zero(l0_[w0])));
    }
    const uint64_t word2 = w1 >= 63 ? 0 : l2_ & (~1ull << w1);  // bits > w1
    if (word2 != 0) {
      w1 = static_cast<uint32_t>(std::countr_zero(word2));
      w0 = (w1 << 6) + static_cast<uint32_t>(std::countr_zero(l1_[w1]));
      return static_cast<int>((w0 << 6) +
                              static_cast<uint32_t>(std::countr_zero(l0_[w0])));
    }
    return -1;
  }

  std::array<uint64_t, kBits / 64> l0_{};
  std::array<uint64_t, kBits / kL1Span> l1_{};
  uint64_t l2_ = 0;
};

class LadderQueue {
 public:
  // Fine window width in ticks (= nanoseconds): the sub-65us CPU, doorbell
  // and controller delays are O(1) appends here.
  static constexpr uint32_t kBucketCount = 1u << 16;
  // Coarse rung: flash-scale delays (page reads/programs, erases, coalesce
  // timeouts) up to ~67 ms. Small on purpose: its chains are part of every
  // Simulator's set-up cost.
  static constexpr uint32_t kCoarseShift = 14;
  static constexpr Tick kCoarseTicks = Tick{1} << kCoarseShift;
  static constexpr uint32_t kCoarseCount = 1u << 12;

  LadderQueue() : buckets_(kBucketCount), coarse_(kCoarseCount) {}
  LadderQueue(const LadderQueue&) = delete;
  LadderQueue& operator=(const LadderQueue&) = delete;

  // Schedules fn at absolute tick `at`, constructing the callable straight
  // into the event's arena record. The engine owns clamp semantics: a tick in
  // the past (at < now) is clamped to now and counted, so every caller shares
  // one past-time policy. Returns a cancellation handle.
  template <typename F>
  TimerHandle Push(Tick now, Tick at, F&& fn) {
    if (at < now) {
      at = now;
      ++clamped_;
    }
    DD_CHECK_LE(window_start_, at) << "push behind the ladder window";
    const uint32_t slot = arena_.Allocate();
    EventRecord& rec = arena_.slot(slot);
    rec.at = at;
    rec.seq = next_seq_++;
    rec.fn.Emplace(std::forward<F>(fn));
    if (CoarseOf(at) < coarse_next_ + kCoarseCount) {
      Place(at, slot);
    } else {
      overflow_.push_back(OverflowEntry{at, rec.seq, slot});
      std::push_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
    }
    ++live_;
    return TimerHandle{slot, rec.gen};
  }

  // Cancels a pending event. Returns false when the handle is empty, stale
  // (the event already fired or was cancelled and its slot recycled), or
  // names an already-cancelled event. The callable is destroyed immediately;
  // the record stays as a tombstone until the dispatch cursor purges it.
  bool Cancel(TimerHandle h) {
    if (h.empty() || h.slot >= arena_.capacity()) {
      return false;
    }
    EventRecord& rec = arena_.slot(h.slot);
    if (rec.gen != h.gen || rec.cancelled) {
      return false;
    }
    rec.cancelled = true;
    rec.fn.Reset();
    --live_;
    ++cancelled_;
    return true;
  }

  // Pops the earliest live event whose tick is <= limit, writing its tick to
  // *at and returning its slot, which the caller hands to Fire(). Returns
  // kNilEvent (popping nothing) when the queue is empty or the earliest event
  // lies beyond the limit. The popped record is unlinked from its chain and
  // its generation advanced, so a handle to it is already stale (Cancel
  // returns false); until Fire() it is on no chain and not on the freelist.
  // Every fine event precedes every coarse event, which precedes every heap
  // event, so the earliest event is the head of the first occupied bucket of
  // the first non-empty rung (for the coarse rung: the earliest event of an
  // unsorted chain). The window only slides to the tick of a live event, so
  // it never passes the clock.
  uint32_t PopEarliest(Tick limit, Tick* at) {
    for (;;) {
      Tick tick;
      const int idx = fine_bits_.FirstCyclic(BucketOf(window_start_));
      if (idx >= 0) {
        if (!PurgeFineHead(static_cast<uint32_t>(idx))) {
          continue;  // the bucket held only tombstones
        }
        tick = TickOf(static_cast<uint32_t>(idx));
      } else if (!coarse_bits_.empty()) {
        if (!EarliestCoarseTick(&tick)) {
          continue;
        }
      } else {
        PurgeOverflowTombstones();
        if (overflow_.empty()) {
          return kNilEvent;
        }
        tick = overflow_.front().at;
      }
      if (tick > limit) {
        return kNilEvent;
      }
      // The popped tick is the new clock: slide the window, demoting the
      // coarse buckets and heap events that now fit (the popped event among
      // them when it came from the coarse rung or the heap).
      Slide(tick);
      const uint32_t b = BucketOf(tick);
      Chain& c = buckets_[b];
      const uint32_t slot = c.head;
      EventRecord& rec = arena_.slot(slot);
      c.head = rec.next;
      if (c.head == kNilEvent) {
        c.tail = kNilEvent;
        fine_bits_.Clear(b);
      }
      ++rec.gen;
      --live_;
      *at = tick;
      return slot;
    }
  }

  // Runs a popped event's callable in place in its record, then recycles the
  // slot. The callable may schedule (growing the arena never moves the
  // record) and cancel other events.
  void Fire(uint32_t slot) {
    arena_.slot(slot).fn();
    arena_.Recycle(slot);
  }

  bool empty() const { return live_ == 0; }
  size_t live() const { return live_; }
  // Past-time pushes clamped to now (unified clamp policy, DESIGN §9).
  uint64_t clamped() const { return clamped_; }
  uint64_t cancelled() const { return cancelled_; }

 private:
  struct Chain {
    uint32_t head = kNilEvent;
    uint32_t tail = kNilEvent;
  };
  struct OverflowEntry {
    Tick at;
    uint64_t seq;
    uint32_t slot;
  };
  // Max-heap comparator inverted on (tick, seq): the heap front is the
  // earliest event.
  struct OverflowLater {
    bool operator()(const OverflowEntry& a, const OverflowEntry& b) const {
      if (a.at != b.at) {
        return a.at > b.at;
      }
      return a.seq > b.seq;
    }
  };

  static uint32_t BucketOf(Tick at) {
    return static_cast<uint32_t>(at) & (kBucketCount - 1);
  }
  // Coarse bucket number of a tick (ticks are never negative).
  static uint64_t CoarseOf(Tick at) {
    return static_cast<uint64_t>(at) >> kCoarseShift;
  }
  static uint32_t CoarseIndex(uint64_t coarse) {
    return static_cast<uint32_t>(coarse) & (kCoarseCount - 1);
  }

  // Absolute tick of an occupied fine bucket under the current window.
  Tick TickOf(uint32_t idx) const {
    const uint32_t start = BucketOf(window_start_);
    const uint32_t delta = (idx - start) & (kBucketCount - 1);
    return window_start_ + delta;
  }

  // Appends to the fine bucket of `at` when its coarse bucket was already
  // distributed, else to that coarse bucket (which must be in the horizon).
  void Place(Tick at, uint32_t slot) {
    const uint64_t coarse = CoarseOf(at);
    if (coarse < coarse_next_) {
      Append(buckets_[BucketOf(at)], fine_bits_, BucketOf(at), slot);
    } else {
      Append(coarse_[CoarseIndex(coarse)], coarse_bits_, CoarseIndex(coarse),
             slot);
    }
  }

  template <uint32_t kBits>
  void Append(Chain& c, OccupancyBitmap<kBits>& bits, uint32_t idx,
              uint32_t slot) {
    arena_.slot(slot).next = kNilEvent;
    if (c.head == kNilEvent) {
      c.head = slot;
      c.tail = slot;
      bits.Set(idx);
    } else {
      arena_.slot(c.tail).next = slot;
      c.tail = slot;
    }
  }

  // Slides the window forward so it starts at `now`, then distributes every
  // coarse bucket whose whole range now fits [now, now + kBucketCount).
  void Slide(Tick now) {
    if (now <= window_start_) {
      return;
    }
    window_start_ = now;
    const uint64_t fits =
        (static_cast<uint64_t>(now) + kBucketCount) >> kCoarseShift;
    if (fits > coarse_next_) {
      Demote(fits);
    }
  }

  bool PurgeFineHead(uint32_t idx);
  bool EarliestCoarseTick(Tick* tick);
  void Demote(uint64_t coarse_next);
  void Distribute(uint32_t coarse_idx);
  void PurgeOverflowTombstones();

  EventArena arena_;
  std::vector<Chain> buckets_;
  OccupancyBitmap<kBucketCount> fine_bits_;
  std::vector<Chain> coarse_;
  OccupancyBitmap<kCoarseCount> coarse_bits_;
  std::vector<OverflowEntry> overflow_;
  Tick window_start_ = 0;
  // First coarse bucket number not yet distributed: ticks below
  // coarse_next_ << kCoarseShift are fine, the next kCoarseCount buckets
  // coarse, the rest overflow.
  uint64_t coarse_next_ = kBucketCount >> kCoarseShift;
  uint64_t next_seq_ = 0;
  size_t live_ = 0;
  uint64_t clamped_ = 0;
  uint64_t cancelled_ = 0;
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_SIM_ENGINE_LADDER_QUEUE_H_
