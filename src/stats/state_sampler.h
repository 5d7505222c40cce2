// Periodic queue-state sampling driven by the simulation event queue.
//
// The sampler owns a set of named read-only probes (NSQ/NCQ depths, flash
// chip occupancy, per-core run-queue lengths, doorbell batch sizes - wired by
// the scenario layer) and samples them all at a fixed simulated-time
// interval. Samples feed the trace export's counter tracks and the scenario
// JSON.
//
// Determinism rules (see DESIGN.md §6):
//   * probes MUST be pure reads of simulation state - they run inside the
//     event loop, so any mutation (or RNG draw) would perturb the run;
//   * sampling events tie-break after same-tick model events only via the
//     event queue's insertion-order sequence, and since probes are read-only
//     the relative order cannot change any simulated result. A run with the
//     sampler attached is simulated-time identical to one without
//     (ScenarioResult::SimulationFingerprint covers this).
#ifndef DAREDEVIL_SRC_STATS_STATE_SAMPLER_H_
#define DAREDEVIL_SRC_STATS_STATE_SAMPLER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/engine/timer_handle.h"
#include "src/sim/simulator.h"

namespace daredevil {

class JsonWriter;  // src/stats/metrics.h

// Plain-data snapshot of a finished sampler (copyable into ScenarioResult).
struct SamplerSnapshot {
  Tick interval = 0;
  std::vector<Tick> times;  // sample timestamps, ascending
  // Probe name -> one value per timestamp. std::map keeps serialization
  // order-stable for the determinism fingerprint machinery.
  std::map<std::string, std::vector<double>> series;

  bool empty() const { return times.empty(); }
  // {"interval_ns":..,"times_ns":[..],"series":{"name":[..],...}} with
  // all-zero series elided (128 idle NSQs would otherwise dominate the JSON).
  void AppendJson(JsonWriter& w) const;
};

class StateSampler {
 public:
  explicit StateSampler(Tick interval);
  StateSampler(const StateSampler&) = delete;
  StateSampler& operator=(const StateSampler&) = delete;

  // Registers a probe. Must be called before Attach(); the callable must be
  // a pure read of simulation state and must outlive the simulation run.
  void AddProbe(const std::string& name, std::function<double()> fn);

  // Schedules sampling at start, start+interval, ... while the sample time
  // is < end (plus one final sample at `end` so the series closes).
  void Attach(Simulator* sim, Tick start, Tick end);

  // Retires the sampler early: cancels the pending sample event outright via
  // its TimerHandle (nothing dead stays queued; no epoch guard needed).
  // Samples already taken are kept. Safe to call when nothing is pending.
  void Detach(Simulator* sim);

  Tick interval() const { return interval_; }
  size_t num_samples() const { return times_.size(); }
  const std::vector<Tick>& times() const { return times_; }
  const std::map<std::string, std::vector<double>>& series() const {
    return series_;
  }

  SamplerSnapshot Snapshot() const;

 private:
  void SampleOnce(Simulator* sim, Tick end);

  Tick interval_;
  std::vector<std::pair<std::string, std::function<double()>>> probes_;
  std::vector<Tick> times_;
  std::map<std::string, std::vector<double>> series_;
  bool attached_ = false;
  // Pending sample event; empty between the final sample and destruction.
  TimerHandle next_sample_;
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_STATS_STATE_SAMPLER_H_
