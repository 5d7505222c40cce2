#include "src/stats/state_sampler.h"

#include <utility>

#include "src/core/invariant.h"
#include "src/stats/metrics.h"

namespace daredevil {

void SamplerSnapshot::AppendJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("interval_ns").Int(interval);
  w.Key("samples").UInt(times.size());
  w.Key("times_ns").BeginArray();
  for (Tick t : times) {
    w.Int(t);
  }
  w.EndArray();
  w.Key("series").BeginObject();
  for (const auto& [name, values] : series) {
    bool all_zero = true;
    for (double v : values) {
      if (v != 0.0) {
        all_zero = false;
        break;
      }
    }
    if (all_zero) {
      continue;
    }
    w.Key(name).BeginArray();
    for (double v : values) {
      w.Double(v);
    }
    w.EndArray();
  }
  w.EndObject();
  w.EndObject();
}

StateSampler::StateSampler(Tick interval)
    : interval_(interval > 0 ? interval : kMillisecond) {}

void StateSampler::AddProbe(const std::string& name,
                            std::function<double()> fn) {
  DD_CHECK(!attached_) << "StateSampler probes must be added before Attach()";
  probes_.emplace_back(name, std::move(fn));
  series_[name];  // reserve the slot so series() is stable from the start
}

void StateSampler::Attach(Simulator* sim, Tick start, Tick end) {
  DD_CHECK(!attached_) << "StateSampler attached twice";
  attached_ = true;
  if (end < start) {
    return;
  }
  next_sample_ = sim->ScheduleAt(  // ddanalyze: purity-ok(sanctioned probe timer; fingerprint excludes observability)
      start, [this, sim, end]() { SampleOnce(sim, end); });
}

void StateSampler::Detach(Simulator* sim) {
  sim->Cancel(next_sample_);  // ddanalyze: purity-ok(tears down only the sampler's own probe timer)
}

void StateSampler::SampleOnce(Simulator* sim, Tick end) {
  next_sample_.Clear();  // this event is firing; the handle is spent. ddanalyze: purity-ok(the sampler's own timer handle)
  const Tick now = sim->now();
  times_.push_back(now);
  for (const auto& [name, fn] : probes_) {
    series_[name].push_back(fn());
  }
  if (now >= end) {
    return;
  }
  // Close the series exactly at `end` so the last window is not lost.
  const Tick next = now + interval_ < end ? now + interval_ : end;
  next_sample_ = sim->ScheduleAt(  // ddanalyze: purity-ok(sanctioned probe timer; fingerprint excludes observability)
      next, [this, sim, end]() { SampleOnce(sim, end); });
}

SamplerSnapshot StateSampler::Snapshot() const {
  SamplerSnapshot snap;
  snap.interval = interval_;
  snap.times = times_;
  snap.series = series_;
  return snap;
}

}  // namespace daredevil
