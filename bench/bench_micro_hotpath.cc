// Microbenchmarks (google-benchmark) for the hot paths the paper argues must
// be lightweight: merit calculation, NQ scheduling queries under the MRU
// policy, Algorithm 1 routing, and the supporting infrastructure (event
// queue, histogram, zipfian draw).
#include <benchmark/benchmark.h>

#include <memory>

#include "src/core/daredevil_stack.h"
#include "src/sim/rng.h"
#include "src/stats/histogram.h"
#include "src/workload/scenario.h"

namespace daredevil {
namespace {

// Standalone Daredevil environment (no workload running).
struct DdEnv {
  Simulator sim;
  Machine machine;
  Device device;
  DaredevilStack stack;

  explicit DdEnv(int nsqs = 64, int ncqs = 64)
      : machine(&sim, Machine::Config{.num_cores = 4}),
        device(&sim,
               [&] {
                 DeviceConfig c;
                 c.nr_nsq = nsqs;
                 c.nr_ncq = ncqs;
                 return c;
               }()),
        stack(&machine, &device, StackCosts{}, DareFullConfig()) {}
};

void BM_MeritCalcNcq(benchmark::State& state) {
  double in_flight = 17;
  for (auto _ : state) {
    benchmark::DoNotOptimize(NqReg::NcqMeritSample(in_flight, 1024, 211, 13));
    in_flight += 1;
  }
}
BENCHMARK(BM_MeritCalcNcq);

void BM_MeritCalcNsq(benchmark::State& state) {
  double contention = 5.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(NqReg::NsqMeritSample(contention, 100, 3));
    contention += 0.25;
  }
}
BENCHMARK(BM_MeritCalcNsq);

void BM_ExponentialSmoothing(benchmark::State& state) {
  double merit = 1.0;
  for (auto _ : state) {
    merit = NqReg::Smooth(0.8, merit + 1.0, merit);
    benchmark::DoNotOptimize(merit);
  }
}
BENCHMARK(BM_ExponentialSmoothing);

// NQ scheduling query with the tenant-based context (m = MRU forces a heap
// re-sort on every call: the worst case).
void BM_NqScheduleTenantContext(benchmark::State& state) {
  DdEnv env(static_cast<int>(state.range(0)), static_cast<int>(state.range(0)));
  NqReg& nqreg = env.stack.nqreg();
  for (auto _ : state) {
    benchmark::DoNotOptimize(nqreg.Schedule(NqPrio::kHigh, nqreg.mru_budget()));
  }
}
BENCHMARK(BM_NqScheduleTenantContext)->Arg(8)->Arg(64)->Arg(256);

// Per-request context (m = 1): the MRU policy amortizes re-sorts away.
void BM_NqSchedulePerRequestContext(benchmark::State& state) {
  DdEnv env(static_cast<int>(state.range(0)), static_cast<int>(state.range(0)));
  NqReg& nqreg = env.stack.nqreg();
  for (auto _ : state) {
    benchmark::DoNotOptimize(nqreg.Schedule(NqPrio::kHigh, 1));
  }
}
BENCHMARK(BM_NqSchedulePerRequestContext)->Arg(8)->Arg(64)->Arg(256);

void BM_TrouteRouting(benchmark::State& state) {
  DdEnv env;
  Tenant tenant;
  tenant.id = TenantId{42};
  tenant.ionice = IoniceClass::kRealtime;
  env.stack.troute().OnTenantStart(&tenant);
  Request rq;
  rq.tenant = &tenant;
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.stack.troute().Route(&rq));
  }
}
BENCHMARK(BM_TrouteRouting);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(1);
  for (auto _ : state) {
    h.Record(static_cast<int64_t>(rng.NextBelow(100'000'000)));
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramPercentile(benchmark::State& state) {
  Histogram h;
  Rng rng(1);
  for (int i = 0; i < 100000; ++i) {
    h.Record(static_cast<int64_t>(rng.NextBelow(100'000'000)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.Percentile(99.9));
  }
}
BENCHMARK(BM_HistogramPercentile);

// Engine events/sec (items_per_second): one push + one dispatch through the
// engine per iteration.
void BM_EventQueuePushPop(benchmark::State& state) {
  Simulator sim;
  Rng rng(2);
  int fired = 0;
  for (auto _ : state) {
    sim.After(TickDuration{static_cast<Tick>(rng.NextBelow(1000))},
              [&fired]() { ++fired; });
    sim.Step();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueuePushPop);

// Bursty shape: 64 events pushed at mixed horizons (same-tick, in-window,
// far-future spill) then drained in one RunUntilIdle. Exercises the ladder
// queue's bucket chains, window slide, and overflow refill together.
void BM_EventQueueBurstDrain(benchmark::State& state) {
  Simulator sim;
  Rng rng(4);
  uint64_t fired = 0;
  constexpr int kBurst = 64;
  for (auto _ : state) {
    for (int i = 0; i < kBurst; ++i) {
      Tick delay = 0;
      switch (rng.NextBelow(4)) {
        case 0: delay = 0; break;                          // same tick
        case 1: delay = rng.NextBelow(1000); break;        // near future
        case 2: delay = rng.NextBelow(60'000); break;      // in window
        default: delay = 70'000 + rng.NextBelow(200'000);  // overflow spill
      }
      sim.After(TickDuration{delay}, [&fired]() { ++fired; });
    }
    sim.RunUntilIdle();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * kBurst);
}
BENCHMARK(BM_EventQueueBurstDrain);

// Cancellation hot path: arm-then-cancel, the watchdog's common case (the
// request completes before the deadline, so the timer never fires).
void BM_TimerArmCancel(benchmark::State& state) {
  Simulator sim;
  int fired = 0;
  uint64_t n = 0;
  for (auto _ : state) {
    TimerHandle h =
        sim.ScheduleAfter(TickDuration{1'000'000}, [&fired]() { ++fired; });
    sim.Cancel(h);
    // Tombstones are reclaimed lazily on pop; give the engine a chance to
    // purge so the bench measures arm/cancel, not unbounded accumulation.
    if ((++n & 1023u) == 0) {
      sim.RunUntilIdle();
    }
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimerArmCancel);

void BM_ZipfianDraw(benchmark::State& state) {
  Rng rng(3);
  ZipfianGenerator zipf(1'000'000, 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(rng));
  }
}
BENCHMARK(BM_ZipfianDraw);

// End-to-end simulation rate: simulated I/Os per wall second for a busy cell.
void BM_ScenarioThroughput(benchmark::State& state) {
  uint64_t ios = 0;
  for (auto _ : state) {
    ScenarioConfig cfg = MakeSvmConfig(4);
    cfg.stack = StackKind::kDareFull;
    cfg.warmup = 5 * kMillisecond;
    cfg.duration = 20 * kMillisecond;
    AddLTenants(cfg, 4);
    AddTTenants(cfg, 8);
    const ScenarioResult r = RunScenario(cfg);
    ios += r.total_completed;
  }
  state.counters["sim_ios"] =
      benchmark::Counter(static_cast<double>(ios), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ScenarioThroughput)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace daredevil

BENCHMARK_MAIN();
