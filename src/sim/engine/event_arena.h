// Slab arena for event records.
//
// Event records are pool-allocated in fixed-size slabs and recycled through
// an intrusive freelist, so the steady-state schedule/dispatch cycle performs
// zero heap allocations: a slab is carved only when the number of events
// simultaneously pending exceeds every previous high-water mark. Slabs are
// separate heap arrays, so growth never moves a record: a callable may run in
// place in its record while the events it schedules grow the arena. Slots
// carry a generation counter that advances when the event leaves the queue
// (popped to fire, or its tombstone freed), which is what makes TimerHandles
// safe against slot reuse.
#ifndef DAREDEVIL_SRC_SIM_ENGINE_EVENT_ARENA_H_
#define DAREDEVIL_SRC_SIM_ENGINE_EVENT_ARENA_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/invariant.h"
#include "src/sim/clock.h"
#include "src/sim/engine/event_fn.h"

namespace daredevil {

inline constexpr uint32_t kNilEvent = 0xffffffffu;

// One scheduled event. `next` doubles as the bucket-chain link while the
// event is pending and as the freelist link while the slot is free.
struct EventRecord {
  Tick at = 0;
  uint64_t seq = 0;
  uint32_t next = kNilEvent;
  uint32_t gen = 0;
  bool cancelled = false;
  EventFn fn;
};

class EventArena {
 public:
  static constexpr uint32_t kSlabSize = 1024;

  EventArena() = default;
  EventArena(const EventArena&) = delete;
  EventArena& operator=(const EventArena&) = delete;

  EventRecord& slot(uint32_t idx) {
    return slabs_[idx / kSlabSize][idx % kSlabSize];
  }

  uint32_t capacity() const {
    return static_cast<uint32_t>(slabs_.size()) * kSlabSize;
  }

  // Pops a slot off the freelist (carving a new slab only when all slots are
  // live). The returned record's fn is empty and cancelled is false.
  uint32_t Allocate() {
    if (free_head_ == kNilEvent) {
      Grow();
    }
    const uint32_t idx = free_head_;
    EventRecord& rec = slot(idx);
    free_head_ = rec.next;
    rec.next = kNilEvent;
    rec.cancelled = false;
    return idx;
  }

  // Recycles a slot whose generation already advanced (an event popped to
  // fire, after its callable ran): destroys the callable and pushes the slot
  // on the freelist.
  void Recycle(uint32_t idx) {
    EventRecord& rec = slot(idx);
    rec.fn.Reset();
    rec.cancelled = false;
    rec.next = free_head_;
    free_head_ = idx;
  }

  // Recycles a cancelled event's tombstone, advancing the generation first
  // (killing any outstanding TimerHandle to this slot).
  void Free(uint32_t idx) {
    ++slot(idx).gen;
    Recycle(idx);
  }

 private:
  void Grow() {
    const uint32_t base = capacity();
    DD_CHECK(base < 0xffffffffu - kSlabSize) << "event arena exhausted";
    // The only allocation in the engine: a new slab when the pending-event
    // high-water mark grows. Never on the steady-state hot path.
    slabs_.push_back(std::make_unique<EventRecord[]>(kSlabSize));  // ddanalyze: enginealloc-ok(slab growth is the one sanctioned allocation site)
    // Chain the fresh slots, newest first so low indices are handed out first.
    for (uint32_t i = kSlabSize; i-- > 0;) {
      EventRecord& rec = slot(base + i);
      rec.next = free_head_;
      free_head_ = base + i;
    }
  }

  std::vector<std::unique_ptr<EventRecord[]>> slabs_;
  uint32_t free_head_ = kNilEvent;
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_SIM_ENGINE_EVENT_ARENA_H_
