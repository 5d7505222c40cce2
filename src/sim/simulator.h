// The discrete-event simulator driving every experiment in this repository.
#ifndef DAREDEVIL_SRC_SIM_SIMULATOR_H_
#define DAREDEVIL_SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <utility>

#include "src/core/types.h"
#include "src/sim/clock.h"
#include "src/sim/engine/event_fn.h"
#include "src/sim/engine/ladder_queue.h"
#include "src/sim/engine/timer_handle.h"

namespace daredevil {

// Single-threaded deterministic event loop over the zero-allocation engine
// core (src/sim/engine/): a ladder queue of arena-pooled event records with
// inline EventFn callbacks. Components schedule callbacks at absolute or
// relative simulated times; each callable is constructed straight into its
// arena record and later runs there, so an event is never copied or moved.
// RunUntil() advances the clock, dispatching whole same-tick batches per
// bucket visit. Timers that may need to be retired early use the
// ScheduleAt/ScheduleAfter + Cancel handle API instead of epoch-guarded dead
// callbacks.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Tick now() const { return now_; }
  // Events dispatched (cancelled events never dispatch and are not counted).
  uint64_t events_processed() const { return events_processed_; }
  // Live (scheduled, not yet fired or cancelled) events. Inside a callback
  // this excludes the firing event.
  size_t pending_events() const { return engine_.live(); }
  // Schedules clamped into the past (engine-central policy: a tick before
  // now fires at now, in schedule order). Exposed for tests and diagnostics;
  // deliberately not a metrics gauge - the metrics snapshot is fingerprinted.
  uint64_t clamped_events() const { return engine_.clamped(); }
  uint64_t cancelled_events() const { return engine_.cancelled(); }

  // Schedules fn at absolute time t (clamped to now if t is in the past).
  template <typename F>
  void At(Tick t, F&& fn) {
    engine_.Push(now_, t, std::forward<F>(fn));
  }

  // Schedules fn after the given delay (a negative delay is treated as 0,
  // via the engine's past-time clamp).
  template <typename F>
  void After(TickDuration delay, F&& fn) {
    engine_.Push(now_, now_ + delay, std::forward<F>(fn));
  }

  // Handle-returning variants for timers that may be cancelled before they
  // fire (watchdogs, self-rescheduling samplers).
  template <typename F>
  TimerHandle ScheduleAt(Tick t, F&& fn) {
    return engine_.Push(now_, t, std::forward<F>(fn));
  }
  template <typename F>
  TimerHandle ScheduleAfter(TickDuration delay, F&& fn) {
    return engine_.Push(now_, now_ + delay, std::forward<F>(fn));
  }

  // Cancels a pending timer; the callback will never run. Returns false on
  // an empty/stale handle (already fired, firing right now, or already
  // cancelled) and clears the handle either way.
  bool Cancel(TimerHandle& handle) {
    const bool cancelled = engine_.Cancel(handle);
    handle.Clear();
    return cancelled;
  }

  // Processes the next event if any; returns false when the queue is empty.
  bool Step();

  // Runs events until the clock reaches t. Events scheduled exactly at t are
  // processed. The clock ends at max(now, t).
  void RunUntil(Tick t);

  // Runs until no events remain.
  void RunUntilIdle();

 private:
  // The one pop-and-fire step under Step, RunUntil and RunUntilIdle: pops
  // the earliest event at or before `limit`, moves the clock to it and runs
  // its callable in place. Returns false when no such event exists.
  bool FireNext(Tick limit);

  Tick now_ = 0;
  uint64_t events_processed_ = 0;
  LadderQueue engine_;
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_SIM_SIMULATOR_H_
