// Block-layer I/O schedulers (the paper's §9: Linux I/O schedulers such as
// mq-deadline/Kyber/BFQ operate per hardware queue atop blk-mq and therefore
// inherit its static core-NQ limitations).
//
// When a stack enables a scheduler, each NSQ gets a scheduler instance and a
// bounded device-dispatch window: requests beyond the window wait inside the
// scheduler, which chooses dispatch order. This reproduces what Linux I/O
// schedulers can and cannot do about multi-tenancy: a deadline scheduler can
// lift reads over queued writes *within one NQ's backlog*, but the requests
// already inside the NQ - and the static core-NQ binding itself - are beyond
// its reach (see bench_ablation_iosched).
#ifndef DAREDEVIL_SRC_STACK_IO_SCHEDULER_H_
#define DAREDEVIL_SRC_STACK_IO_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <string_view>

#include "src/sim/clock.h"
#include "src/sim/ring_fifo.h"
#include "src/stack/request.h"

namespace daredevil {

enum class IoSchedulerKind {
  kNone,      // direct dispatch (blk-mq "none", the evaluation default)
  kNoop,      // FIFO through the scheduler queue
  kDeadline,  // mq-deadline-like: read/write FIFOs with expiries, read batches
};

std::string_view IoSchedulerKindName(IoSchedulerKind kind);

// Per-NSQ scheduler instance. Add() receives requests in submission order;
// Dispatch() returns the next request to send to the device (or nullptr).
class IoScheduler {
 public:
  virtual ~IoScheduler() = default;
  virtual void Add(Request* rq, Tick now) = 0;
  virtual Request* Dispatch(Tick now) = 0;
  virtual bool Empty() const = 0;
  virtual size_t Depth() const = 0;
  virtual std::string_view name() const = 0;
};

class NoopScheduler : public IoScheduler {
 public:
  void Add(Request* rq, Tick now) override;
  Request* Dispatch(Tick now) override;
  bool Empty() const override { return fifo_.empty(); }
  size_t Depth() const override { return fifo_.size(); }
  std::string_view name() const override { return "noop"; }

 private:
  RingFifo<Request*> fifo_;
};

// mq-deadline-like: reads and writes queue separately with per-class
// expiries; dispatch prefers reads in batches but serves an expired write
// immediately (starvation avoidance).
class DeadlineScheduler : public IoScheduler {
 public:
  struct Config {
    Tick read_expire = 500 * kMicrosecond;
    Tick write_expire = 5 * kMillisecond;
    int read_batch = 16;  // reads dispatched before checking writes
  };

  DeadlineScheduler() : DeadlineScheduler(Config{}) {}
  explicit DeadlineScheduler(const Config& config)
      : config_(config), batch_credit_(config.read_batch) {}

  void Add(Request* rq, Tick now) override;
  Request* Dispatch(Tick now) override;
  bool Empty() const override { return reads_.empty() && writes_.empty(); }
  size_t Depth() const override { return reads_.size() + writes_.size(); }
  std::string_view name() const override { return "deadline"; }

  uint64_t expired_writes_served() const { return expired_writes_served_; }

 private:
  struct Entry {
    Request* rq;
    Tick deadline;
  };

  Config config_;
  RingFifo<Entry> reads_;
  RingFifo<Entry> writes_;
  int batch_credit_ = 0;
  bool write_served_last_ = false;  // starvation guard: alternate under expiry
  uint64_t expired_writes_served_ = 0;
};

std::unique_ptr<IoScheduler> MakeIoScheduler(IoSchedulerKind kind);

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_STACK_IO_SCHEDULER_H_
