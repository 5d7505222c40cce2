#include "src/sim/cpu.h"

#include <utility>

#include "src/sim/shard.h"

namespace daredevil {

CpuCore::CpuCore(Simulator* sim, CoreId id, TickDuration dispatch_overhead)
    : sim_(sim), id_(id), dispatch_overhead_(dispatch_overhead) {}

void CpuCore::Post(WorkLevel level, TickDuration duration, EventFn fn) {
  if (duration < kZeroDuration) {
    duration = kZeroDuration;
  }
  queues_[static_cast<int>(level)].push_back(
      Work{level, duration, std::move(fn)});
  MaybeRun();
}

size_t CpuCore::TotalQueueDepth() const {
  size_t n = 0;
  for (const auto& q : queues_) {
    n += q.size();
  }
  return n;
}

TickDuration CpuCore::total_busy_ns() const {
  return busy_ns_[0] + busy_ns_[1] + busy_ns_[2];
}

void CpuCore::MaybeRun() {
  if (running_) {
    return;
  }
  int level = -1;
  for (int i = 0; i < kNumWorkLevels; ++i) {
    if (!queues_[i].empty()) {
      level = i;
      break;
    }
  }
  if (level < 0) {
    return;
  }
  current_ = std::move(queues_[level].front());
  queues_[level].pop_front();
  running_ = true;
  current_cost_ = dispatch_overhead_ + current_.duration;
  sim_->After(current_cost_, [this]() { FinishCurrent(); });
}

void CpuCore::FinishCurrent() {
  busy_ns_[static_cast<int>(current_.level)] += current_cost_;
  ++items_executed_;
  // Move the callback out before dropping running_: the callback may post
  // new work, re-entering MaybeRun and overwriting current_.
  EventFn fn = std::move(current_.fn);
  running_ = false;
  if (fn) {
    fn();
  }
  MaybeRun();
}

Machine::Machine(Simulator* sim, const Config& config) : sim_(sim), config_(config) {
  cores_.reserve(static_cast<size_t>(config.num_cores));
  for (int i = 0; i < config.num_cores; ++i) {
    cores_.push_back(
        std::make_unique<CpuCore>(sim, CoreId{i}, config.dispatch_overhead));
  }
}

Machine::Machine(ShardContext* shard, const Config& config)
    : Machine(&shard->sim(), config) {}

void Machine::Post(int core, WorkLevel level, TickDuration duration, EventFn fn,
                   int from_core) {
  if (from_core >= 0 && from_core != core) {
    ++cross_core_posts_;
    cross_pending_.push_back(
        CrossPost{core, level, duration, std::move(fn)});
    sim_->After(config_.cross_core_wakeup, [this]() { DeliverCrossPost(); });
    return;
  }
  cores_[core]->Post(level, duration, std::move(fn));
}

void Machine::DeliverCrossPost() {
  CrossPost p = std::move(cross_pending_.front());
  cross_pending_.pop_front();
  cores_[p.core]->Post(p.level, p.duration, std::move(p.fn));
}

TickDuration Machine::total_busy_ns() const {
  TickDuration total;
  for (const auto& c : cores_) {
    total += c->total_busy_ns();
  }
  return total;
}

double Machine::Utilization(TickDuration busy_at_from, Tick from, Tick to) const {
  if (to <= from || cores_.empty()) {
    return 0.0;
  }
  const TickDuration busy = total_busy_ns() - busy_at_from;
  const Tick wall = (to - from) * static_cast<Tick>(cores_.size());
  return static_cast<double>(busy.ticks()) / static_cast<double>(wall);
}

}  // namespace daredevil
