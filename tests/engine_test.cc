// Unit tests for the zero-allocation event engine (src/sim/engine/):
// ladder-queue ordering across bucket and window boundaries, demotion from
// the coarse rung and the overflow heap, cancellation semantics, the
// centralized past-time clamp, in-place firing, and two determinism gates
// against a reference binary-heap queue (a recorded schedule, and a
// callback-driven workload).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "src/sim/engine/event_arena.h"
#include "src/sim/engine/event_fn.h"
#include "src/sim/engine/ladder_queue.h"
#include "src/sim/engine/timer_handle.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"

namespace daredevil {
namespace {

constexpr Tick kWindow = static_cast<Tick>(LadderQueue::kBucketCount);

// Pops the earliest event and runs its callable in place, as Simulator's
// loop does. Returns false when the queue is empty.
bool PopAndFire(LadderQueue& q, Tick* at) {
  const uint32_t slot = q.PopEarliest(INT64_MAX, at);
  if (slot == kNilEvent) {
    return false;
  }
  q.Fire(slot);
  return true;
}

// Drains the queue. Each callback appends one (0, tag) entry to `fired`;
// the drain then stamps the actual pop tick onto the entry it appended.
void DrainAll(LadderQueue& q, std::vector<std::pair<Tick, int>>& fired) {
  Tick at = 0;
  while (PopAndFire(q, &at)) {
    ASSERT_FALSE(fired.empty());
    fired.back().first = at;
  }
}

TEST(EventFnTest, InlineCapacityMeetsEngineContract) {
  static_assert(EventFn::kInlineBytes >= 48, "engine contract");
  int x = 0;
  EventFn f([&x]() { ++x; });
  EXPECT_TRUE(static_cast<bool>(f));
  f();
  EXPECT_EQ(x, 1);
  EventFn g = std::move(f);
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
  g();
  EXPECT_EQ(x, 2);
}

TEST(EventFnTest, WrapsNonTrivialCallables) {
  // std::function is not trivially copyable: exercises the out-of-line
  // relocate/destroy path.
  int x = 0;
  std::function<void()> inner = [&x]() { x += 10; };
  EventFn f(inner);
  EventFn g(std::move(f));
  EventFn h;
  h = std::move(g);
  h();
  EXPECT_EQ(x, 10);
}

TEST(LadderQueueTest, SameTickFifoWithinOneBucket) {
  LadderQueue q;
  std::vector<std::pair<Tick, int>> fired;
  for (int i = 0; i < 100; ++i) {
    q.Push(0, 42, [&fired, i]() { fired.emplace_back(0, i); });
  }
  DrainAll(q, fired);
  ASSERT_EQ(fired.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(fired[static_cast<size_t>(i)], (std::pair<Tick, int>{42, i}));
  }
}

TEST(LadderQueueTest, SameTickFifoAcrossWindowBoundary) {
  // Events scheduled at ticks straddling the first window boundary, pushed
  // in interleaved order. Every tick gets two events; within a tick the
  // pushes must fire in push order even when the second push happened after
  // events for later ticks.
  LadderQueue q;
  const Tick ticks[] = {kWindow - 1, kWindow, kWindow + 1, 2 * kWindow + 3};
  std::vector<std::pair<Tick, int>> fired;
  int tag = 0;
  for (Tick t : ticks) {
    q.Push(0, t, [&fired, tag]() { fired.emplace_back(0, tag); });
    ++tag;
  }
  for (Tick t : ticks) {
    q.Push(0, t, [&fired, tag]() { fired.emplace_back(0, tag); });
    ++tag;
  }
  DrainAll(q, fired);
  ASSERT_EQ(fired.size(), 8u);
  // Expected order: ticks ascending, and within each tick the first-pushed
  // (tag i) before the second-pushed (tag i + 4).
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(fired[static_cast<size_t>(2 * i)].first, ticks[i]);
    EXPECT_EQ(fired[static_cast<size_t>(2 * i)].second, i);
    EXPECT_EQ(fired[static_cast<size_t>(2 * i + 1)].first, ticks[i]);
    EXPECT_EQ(fired[static_cast<size_t>(2 * i + 1)].second, i + 4);
  }
}

TEST(LadderQueueTest, SparseFarFutureSpillAndRefill) {
  // Sparse events many windows apart spill to the coarse rung or the
  // overflow heap; each pop slides the window and demotes what now fits.
  // Order must be globally ascending.
  LadderQueue q;
  std::vector<Tick> at;
  Rng rng(7);
  Tick t = 0;
  for (int i = 0; i < 200; ++i) {
    t += static_cast<Tick>(rng.NextBelow(5 * static_cast<uint64_t>(kWindow)));
    at.push_back(t);
  }
  // Push in shuffled order from now=0.
  std::vector<Tick> shuffled = at;
  rng.Shuffle(shuffled);
  std::vector<std::pair<Tick, int>> fired;
  for (Tick a : shuffled) {
    q.Push(0, a, [&fired]() { fired.emplace_back(0, 0); });
  }
  EXPECT_EQ(q.live(), 200u);
  DrainAll(q, fired);
  ASSERT_EQ(fired.size(), 200u);
  std::vector<Tick> got;
  got.reserve(fired.size());
  for (const auto& [tick, tag] : fired) {
    got.push_back(tick);
  }
  std::vector<Tick> want = at;  // already ascending by construction
  EXPECT_EQ(got, want);
  EXPECT_TRUE(q.empty());
}

TEST(LadderQueueTest, RefillPreservesSeqOrderAgainstLaterPushes) {
  // A far event demoted into a fine bucket must still fire before an event
  // pushed directly to the same tick afterwards (its seq is older).
  LadderQueue q;
  const Tick far = 3 * kWindow + 17;
  std::vector<int> order;
  q.Push(0, far, [&order]() { order.push_back(1); });  // beyond the fine rung
  Tick at = 0;
  // A near event whose pop slides the window far enough to demote nothing;
  // then push a same-tick rival AFTER the spill (still before demotion).
  q.Push(0, 5, [&order]() { order.push_back(0); });
  ASSERT_TRUE(PopAndFire(q, &at));
  q.Push(at, far, [&order]() { order.push_back(2); });
  while (PopAndFire(q, &at)) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(LadderQueueTest, CancelBeforeFire) {
  LadderQueue q;
  bool fired = false;
  TimerHandle h = q.Push(0, 10, [&fired]() { fired = true; });
  EXPECT_EQ(q.live(), 1u);
  EXPECT_TRUE(q.Cancel(h));
  EXPECT_EQ(q.live(), 0u);
  EXPECT_EQ(q.cancelled(), 1u);
  Tick at = 0;
  EXPECT_FALSE(PopAndFire(q, &at));
  EXPECT_FALSE(fired);
}

TEST(LadderQueueTest, CancelAfterFireIsStale) {
  LadderQueue q;
  TimerHandle h = q.Push(0, 10, []() {});
  Tick at = 0;
  ASSERT_TRUE(PopAndFire(q, &at));
  // The slot was freed (and its generation bumped): the handle is stale.
  EXPECT_FALSE(q.Cancel(h));
  EXPECT_EQ(q.cancelled(), 0u);
}

TEST(LadderQueueTest, DoubleCancelReturnsFalse) {
  LadderQueue q;
  TimerHandle h = q.Push(0, 10, []() {});
  EXPECT_TRUE(q.Cancel(h));
  EXPECT_FALSE(q.Cancel(h));
  EXPECT_EQ(q.cancelled(), 1u);
  EXPECT_FALSE(q.Cancel(TimerHandle{}));  // empty handle
}

TEST(LadderQueueTest, CancelledOverflowEventNeverFires) {
  LadderQueue q;
  bool fired = false;
  TimerHandle h = q.Push(0, 10 * kWindow, [&fired]() { fired = true; });
  bool other = false;
  q.Push(0, 10 * kWindow, [&other]() { other = true; });
  EXPECT_TRUE(q.Cancel(h));
  Tick at = 0;
  ASSERT_TRUE(PopAndFire(q, &at));
  EXPECT_FALSE(PopAndFire(q, &at));
  EXPECT_FALSE(fired);
  EXPECT_TRUE(other);
  EXPECT_EQ(at, 10 * kWindow);
}

TEST(LadderQueueTest, PastTimePushClampsAndCounts) {
  // The clamp policy lives in the engine: a push behind `now` fires at now,
  // after events already queued at now (its seq is larger), and the clamped
  // counter records it.
  LadderQueue q;
  std::vector<int> order;
  q.Push(100, 100, [&order]() { order.push_back(0); });
  q.Push(100, 40, [&order]() { order.push_back(1); });  // the past: clamps
  EXPECT_EQ(q.clamped(), 1u);
  Tick at = 0;
  while (PopAndFire(q, &at)) {
    EXPECT_EQ(at, 100);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(SimulatorEngineTest, ClampedEventsCounterRegression) {
  Simulator sim;
  sim.At(100, []() {});
  sim.RunUntilIdle();
  EXPECT_EQ(sim.clamped_events(), 0u);
  sim.At(50, []() {});                  // past-time At
  sim.After(TickDuration{-20}, []() {});  // negative delay
  EXPECT_EQ(sim.clamped_events(), 2u);
  sim.RunUntilIdle();
  EXPECT_EQ(sim.now(), 100);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(SimulatorEngineTest, CancelThroughSimulatorApi) {
  Simulator sim;
  bool fired = false;
  TimerHandle h = sim.ScheduleAfter(TickDuration{100}, [&fired]() { fired = true; });
  EXPECT_TRUE(sim.Cancel(h));
  EXPECT_TRUE(h.empty());  // Cancel clears the handle
  EXPECT_FALSE(sim.Cancel(h));
  sim.RunUntilIdle();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.cancelled_events(), 1u);
  EXPECT_EQ(sim.events_processed(), 0u);
}

// --- In-place firing --------------------------------------------------------
//
// The callable runs in its arena record: popped (generation advanced) but not
// yet recycled while it executes.

TEST(SimulatorEngineTest, CallbackCancellingItsOwnHandleGetsFalse) {
  Simulator sim;
  TimerHandle h;
  bool cancelled = true;
  bool finished = false;
  h = sim.ScheduleAfter(TickDuration{10}, [&sim, &h, &cancelled, &finished]() {
    cancelled = sim.Cancel(h);  // the handle went stale at pop
    finished = true;
  });
  sim.RunUntilIdle();
  EXPECT_FALSE(cancelled);
  EXPECT_TRUE(finished);
  EXPECT_EQ(sim.cancelled_events(), 0u);
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(SimulatorEngineTest, CallbackReadsCapturesAfterArenaGrowsUnderIt) {
  Simulator sim;
  constexpr uint32_t kScheduled = 2 * EventArena::kSlabSize;
  uint64_t seen_a = 0;
  uint64_t seen_b = 0;
  size_t pending = 0;
  int fired = 0;
  const uint64_t a = 0x0123456789abcdefull;
  const uint64_t b = 0xfedcba9876543210ull;
  // The first event sits in the first slab; scheduling 2 slabs' worth of
  // events from inside it grows the arena by two slabs while it runs.
  sim.At(1, [&sim, &seen_a, &seen_b, &pending, &fired, a, b]() {
    for (uint32_t i = 0; i < kScheduled; ++i) {
      sim.At(2, [&fired]() { ++fired; });
    }
    pending = sim.pending_events();
    seen_a = a;  // read from the record after the growth
    seen_b = b;
  });
  sim.RunUntilIdle();
  EXPECT_EQ(seen_a, a);
  EXPECT_EQ(seen_b, b);
  EXPECT_EQ(pending, kScheduled);
  EXPECT_EQ(fired, static_cast<int>(kScheduled));
  EXPECT_EQ(sim.events_processed(), kScheduled + 1u);
}

TEST(SimulatorEngineTest, PendingEventsInsideCallbackExcludesFiringEvent) {
  Simulator sim;
  size_t inside = 99;
  sim.At(5, [&sim, &inside]() { inside = sim.pending_events(); });
  sim.At(7, []() {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.RunUntilIdle();
  EXPECT_EQ(inside, 1u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// --- Old-vs-new determinism gate -----------------------------------------
//
// A reference event queue with the seed engine's semantics: binary heap
// ordered by (tick, seq), past-time pushes clamped to now. The recorded
// schedule below drives both engines; their dispatch sequences must match
// event for event.
class ReferenceEventQueue {
 public:
  void Push(Tick now, Tick at, int tag) {
    if (at < now) {
      at = now;
    }
    heap_.push(Entry{at, seq_++, tag});
  }
  // Tick of the earliest entry (cancelled or not), false when empty.
  bool Peek(Tick* at) const {
    if (heap_.empty()) {
      return false;
    }
    *at = heap_.top().at;
    return true;
  }
  bool Pop(Tick* at, int* tag) {
    if (heap_.empty()) {
      return false;
    }
    // No move-from-const_cast-of-top() here either: tags are plain values.
    const Entry e = heap_.top();
    heap_.pop();
    *at = e.at;
    *tag = e.tag;
    return true;
  }

 private:
  struct Entry {
    Tick at;
    uint64_t seq;
    int tag;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) {
        return a.at > b.at;
      }
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  uint64_t seq_ = 0;
};

struct ScheduleStep {
  Tick delay;  // relative to the previous event's dispatch time
  int tag;
};

// Records a deterministic 10k-event schedule: a mix of same-tick bursts,
// in-window delays, and far-future spills, all derived from a fixed seed.
std::vector<ScheduleStep> RecordedSchedule() {
  std::vector<ScheduleStep> steps;
  Rng rng(20260808);
  for (int i = 0; i < 10000; ++i) {
    Tick delay;
    const uint64_t shape = rng.NextBelow(100);
    if (shape < 25) {
      delay = 0;  // same-tick burst
    } else if (shape < 85) {
      delay = static_cast<Tick>(rng.NextBelow(2000));  // in-window
    } else if (shape < 97) {
      // Around the window boundary: lands in-window or just past it.
      delay = static_cast<Tick>(rng.NextBelow(2 * static_cast<uint64_t>(kWindow)));
    } else {
      // Many windows out: exercises spill + refill.
      delay = static_cast<Tick>(rng.NextBelow(10 * static_cast<uint64_t>(kWindow)));
    }
    steps.push_back(ScheduleStep{delay, i});
  }
  return steps;
}

TEST(SimulatorEngineTest, MatchesReferenceHeapOnRecordedSchedule) {
  const std::vector<ScheduleStep> steps = RecordedSchedule();

  // Reference run: all events pushed up front from time 0, offsets
  // accumulated the same way the simulator run accumulates them.
  std::vector<std::pair<Tick, int>> want;
  {
    ReferenceEventQueue ref;
    Tick base = 0;
    for (const auto& s : steps) {
      base += s.delay;
      ref.Push(0, base, s.tag);
    }
    Tick at = 0;
    int tag = 0;
    while (ref.Pop(&at, &tag)) {
      want.emplace_back(at, tag);
    }
  }

  // Engine run through the full Simulator API.
  std::vector<std::pair<Tick, int>> got;
  {
    Simulator sim;
    Tick base = 0;
    for (const auto& s : steps) {
      base += s.delay;
      sim.At(base, [&got, &sim, tag = s.tag]() {
        got.emplace_back(sim.now(), tag);
      });
    }
    sim.RunUntilIdle();
  }

  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.size(), steps.size());
  EXPECT_EQ(got, want);
}

// --- Callback-driven differential gate ------------------------------------
//
// The recorded schedule above pushes everything from tick 0. Here both the
// Simulator and the reference heap run one workload whose events schedule
// and cancel other events from inside their callbacks, across RunUntil
// limits and an idle jump. The workload's choices are a function of its seed
// and of the dispatch sequence it observes, so two engines that dispatch
// identically make identical choices and the first divergence shows up as a
// differing log entry.

constexpr uint32_t kCoarseShift = LadderQueue::kCoarseShift;
constexpr Tick kCoarseSpan =
    static_cast<Tick>(LadderQueue::kCoarseCount) * LadderQueue::kCoarseTicks;

// Rung boundaries of the ladder whose window starts at `ws` (the last popped
// tick): ticks below FineEnd are in the fine rung, ticks below CoarseEnd in
// the coarse rung, the rest in the overflow heap.
Tick FineEnd(Tick ws) {
  return ((ws + kWindow) >> kCoarseShift) << kCoarseShift;
}
Tick CoarseEnd(Tick ws) { return FineEnd(ws) + kCoarseSpan; }

class DiffEngine {
 public:
  virtual ~DiffEngine() = default;
  virtual Tick now() const = 0;
  virtual void Push(Tick at, int tag) = 0;
  virtual bool Cancel(int tag) = 0;
  virtual void RunUntil(Tick limit) = 0;
};

class DiffWorkload {
 public:
  enum Op : int { kFire, kCancelled, kCancelMissed };
  struct LogEntry {
    Op op;
    Tick tick;
    int tag;
    bool operator==(const LogEntry&) const = default;
  };
  enum Rung { kFine, kCoarse, kHeap };

  explicit DiffWorkload(uint64_t seed) : rng_(seed) {}
  void Attach(DiffEngine* engine) { engine_ = engine; }

  // Dispatch hook: logs the event, then (unless quiet) reacts by scheduling
  // and cancelling.
  void OnFire(int tag) {
    const Tick now = engine_->now();
    if (last_fire_ >= 0 && now - last_fire_ > kCoarseSpan) {
      ++idle_jumps_;
    }
    last_fire_ = now;
    log_.push_back({kFire, now, tag});
    Unpend(tag);
    if (quiet_) {
      return;
    }
    // Keep roughly 400..1200 events pending.
    const size_t n = pending_.size() < 400    ? 2
                     : pending_.size() > 1200 ? 0
                                              : rng_.NextBelow(3);
    for (size_t i = 0; i < n; ++i) {
      PushAt(now + DrawDelay());
    }
    if (rng_.NextBool(0.15)) {
      CancelPending();
    }
    if (rng_.NextBool(0.02)) {
      CancelAny();  // usually a fired or cancelled tag: must miss on both
    }
  }

  void PushAt(Tick at) {
    const int tag = static_cast<int>(at_.size());
    at_.push_back(std::max(at, engine_->now()));
    pos_.push_back(static_cast<int>(pending_.size()));
    pending_.push_back(tag);
    engine_->Push(at, tag);
  }

  // Delays from every rung and from the exact rung boundaries of the current
  // window (the last popped tick).
  Tick DrawDelay() {
    const Tick now = engine_->now();
    const Tick fine = FineEnd(last_fire_ < 0 ? 0 : last_fire_) - now;
    const Tick coarse = CoarseEnd(last_fire_ < 0 ? 0 : last_fire_) - now;
    switch (rng_.NextBelow(6)) {
      case 0:
        return 0;
      case 1:
        return Below(fine);
      case 2:
        return fine + Below(kCoarseSpan);
      case 3: {
        const Tick edges[] = {fine - 1,   fine,   fine + 1,
                              coarse - 1, coarse, coarse + 1};
        return edges[rng_.NextBelow(6)];
      }
      case 4:
        return coarse + Below(kCoarseSpan);
      default:
        return 68 * kMillisecond + Below(100 * kMillisecond);
    }
  }

  // Cancels a pending event, preferring one in a randomly chosen rung (fine
  // events are rare: they fire soon after they are pushed).
  void CancelPending() {
    if (pending_.empty()) {
      return;
    }
    const auto want = static_cast<Rung>(rng_.NextBelow(3));
    int tag = -1;
    Rung rung = kFine;
    for (int tries = 0; tries < 32 && (tag < 0 || rung != want); ++tries) {
      tag = pending_[rng_.NextBelow(pending_.size())];
      rung = RungOf(at_[static_cast<size_t>(tag)]);
    }
    ++cancels_[rung];
    Cancel(tag);
  }

  void CancelAny() {
    if (!at_.empty()) {
      Cancel(static_cast<int>(rng_.NextBelow(at_.size())));
    }
  }

  void Cancel(int tag) {
    const bool hit = engine_->Cancel(tag);
    log_.push_back({hit ? kCancelled : kCancelMissed, engine_->now(), tag});
    if (hit) {
      Unpend(tag);
    }
  }

  // RunUntil, counting limits that end inside a coarse bucket not yet
  // distributed (beyond the fine rung of the final window).
  void RunUntil(Tick limit) {
    engine_->RunUntil(limit);
    const Tick ws = last_fire_ < 0 ? 0 : last_fire_;
    if (limit >= FineEnd(ws) && limit < CoarseEnd(ws)) {
      ++limits_in_coarse_;
    }
  }

  // A random tick in [0, bound), 0 when bound <= 0.
  Tick Below(Tick bound) {
    return bound <= 0 ? 0
                      : static_cast<Tick>(
                            rng_.NextBelow(static_cast<uint64_t>(bound)));
  }
  void set_quiet(bool quiet) { quiet_ = quiet; }
  size_t pending() const { return pending_.size(); }
  const std::vector<LogEntry>& log() const { return log_; }
  int cancels(Rung r) const { return cancels_[r]; }
  int limits_in_coarse() const { return limits_in_coarse_; }
  int idle_jumps() const { return idle_jumps_; }

 private:
  Rung RungOf(Tick at) const {
    const Tick ws = last_fire_ < 0 ? 0 : last_fire_;
    return at < FineEnd(ws) ? kFine : (at < CoarseEnd(ws) ? kCoarse : kHeap);
  }

  void Unpend(int tag) {
    const int i = pos_[static_cast<size_t>(tag)];
    if (i < 0) {
      return;
    }
    const int moved = pending_.back();
    pending_[static_cast<size_t>(i)] = moved;
    pos_[static_cast<size_t>(moved)] = i;
    pending_.pop_back();
    pos_[static_cast<size_t>(tag)] = -1;
  }

  Rng rng_;
  DiffEngine* engine_ = nullptr;
  bool quiet_ = false;
  Tick last_fire_ = -1;
  std::vector<Tick> at_;      // by tag: scheduled tick (after clamping)
  std::vector<int> pos_;      // by tag: index in pending_, -1 once gone
  std::vector<int> pending_;  // tags neither fired nor cancelled
  std::vector<LogEntry> log_;
  int cancels_[3] = {0, 0, 0};
  int limits_in_coarse_ = 0;
  int idle_jumps_ = 0;
};

class SimulatorDiffEngine : public DiffEngine {
 public:
  explicit SimulatorDiffEngine(DiffWorkload* w) : w_(w) { w_->Attach(this); }
  Tick now() const override { return sim_.now(); }
  void Push(Tick at, int tag) override {
    handles_.resize(std::max(handles_.size(), static_cast<size_t>(tag) + 1));
    handles_[static_cast<size_t>(tag)] =
        sim_.ScheduleAt(at, [this, tag]() { w_->OnFire(tag); });
  }
  bool Cancel(int tag) override {
    return sim_.Cancel(handles_[static_cast<size_t>(tag)]);
  }
  void RunUntil(Tick limit) override { sim_.RunUntil(limit); }

 private:
  DiffWorkload* w_;
  Simulator sim_;
  std::vector<TimerHandle> handles_;
};

class ReferenceDiffEngine : public DiffEngine {
 public:
  explicit ReferenceDiffEngine(DiffWorkload* w) : w_(w) { w_->Attach(this); }
  Tick now() const override { return now_; }
  void Push(Tick at, int tag) override {
    live_.resize(std::max(live_.size(), static_cast<size_t>(tag) + 1), false);
    live_[static_cast<size_t>(tag)] = true;
    q_.Push(now_, at, tag);
  }
  bool Cancel(int tag) override {
    const bool was_live = live_[static_cast<size_t>(tag)];
    live_[static_cast<size_t>(tag)] = false;
    return was_live;
  }
  void RunUntil(Tick limit) override {
    Tick at = 0;
    int tag = 0;
    while (q_.Peek(&at) && at <= limit) {
      q_.Pop(&at, &tag);
      if (!live_[static_cast<size_t>(tag)]) {
        continue;  // cancelled
      }
      live_[static_cast<size_t>(tag)] = false;
      now_ = at;
      w_->OnFire(tag);
    }
    now_ = std::max(now_, limit);
  }

 private:
  DiffWorkload* w_;
  ReferenceEventQueue q_;
  Tick now_ = 0;
  std::vector<bool> live_;  // by tag
};

// One scripted run: RunUntil segments (each followed by pushes at the limit
// tick from outside any callback), a full drain, an idle jump past the
// coarse horizon, more segments, and a final drain.
void RunDiffScript(DiffWorkload& w, const DiffEngine& e) {
  for (int i = 0; i < 200; ++i) {
    w.PushAt(w.DrawDelay());
  }
  auto segments = [&w, &e](int count) {
    for (int i = 0; i < count; ++i) {
      w.RunUntil(e.now() + w.Below(10 * kMillisecond));
      w.PushAt(e.now());
      w.PushAt(e.now() + w.DrawDelay());
    }
  };
  segments(300);
  w.set_quiet(true);
  w.RunUntil(e.now() + kSecond);
  ASSERT_EQ(w.pending(), 0u);
  w.set_quiet(false);
  w.PushAt(e.now() + 100 * kMillisecond);
  w.PushAt(e.now() + 100 * kMillisecond);
  w.RunUntil(e.now() + 150 * kMillisecond);
  segments(300);
  w.set_quiet(true);
  w.RunUntil(e.now() + kSecond);
  ASSERT_EQ(w.pending(), 0u);
}

TEST(SimulatorEngineTest, MatchesReferenceHeapUnderCallbacksCancelsAndLimits) {
  constexpr uint64_t kSeed = 20261017;
  DiffWorkload want(kSeed);
  ReferenceDiffEngine reference(&want);
  RunDiffScript(want, reference);
  DiffWorkload got(kSeed);
  SimulatorDiffEngine simulator(&got);
  RunDiffScript(got, simulator);

  const auto& a = want.log();
  const auto& b = got.log();
  size_t same = 0;
  while (same < a.size() && same < b.size() && a[same] == b[same]) {
    ++same;
  }
  ASSERT_EQ(same, a.size())
      << "first divergence at log entry " << same << ": reference (op "
      << a[same].op << ", tick " << a[same].tick << ", tag " << a[same].tag
      << ")";
  ASSERT_EQ(b.size(), a.size());

  // The script reached every case it is meant to cover.
  EXPECT_GT(a.size(), 10000u);
  EXPECT_GE(got.cancels(DiffWorkload::kFine), 20);
  EXPECT_GE(got.cancels(DiffWorkload::kCoarse), 20);
  EXPECT_GE(got.cancels(DiffWorkload::kHeap), 20);
  EXPECT_GE(got.limits_in_coarse(), 50);
  EXPECT_GE(got.idle_jumps(), 1);
}

}  // namespace
}  // namespace daredevil
