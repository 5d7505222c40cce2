// Open-loop workload generator: requests arrive on a Poisson (optionally
// bursty) schedule regardless of completions, like production block-storage
// traces. Unlike the closed-loop FioJob, an open-loop source keeps applying
// arrival pressure when the stack slows down, which is what exposes latency
// collapse at saturation.
#ifndef DAREDEVIL_SRC_WORKLOAD_OPEN_LOOP_H_
#define DAREDEVIL_SRC_WORKLOAD_OPEN_LOOP_H_

#include <string>

#include "src/sim/rng.h"
#include "src/stack/tenant_io.h"

namespace daredevil {

struct OpenLoopSpec {
  std::string name;
  std::string group = "OL";
  IoniceClass ionice = IoniceClass::kRealtime;
  uint32_t nsid = 0;
  uint32_t pages = 1;
  bool is_write = false;
  bool random = true;

  double iops = 10000;      // mean arrival rate
  // Burstiness: with probability burst_prob an arrival starts a burst of
  // burst_len back-to-back requests (on-off arrival, like checkpoint spikes
  // and cache-miss storms in production traces).
  double burst_prob = 0.0;
  int burst_len = 8;

  Tick start_time = 0;
  int core = 0;
  // Drops new arrivals beyond this many outstanding requests (an open-loop
  // source still has finite client-side queueing).
  int max_outstanding = 4096;  // ddanalyze: units-ok(request count, not bytes)
};

// An open-loop source over the tenant I/O core: Poisson arrival slots (each
// one request or a burst) until the measurement window ends, dropping the
// arrivals that find max_outstanding requests already in flight.
class OpenLoopJob : public TenantIo {
 public:
  OpenLoopJob(Machine* machine, StorageStack* stack, const OpenLoopSpec& spec,
              uint64_t tenant_id, Rng rng, Tick measure_start, Tick measure_end);

  void Start();

  const OpenLoopSpec& spec() const { return spec_; }
  uint64_t total_arrivals() const { return arrivals_; }
  uint64_t dropped_arrivals() const { return dropped_; }
  int outstanding() const { return inflight(); }

 private:
  void ScheduleNextArrival();
  void Arrive(int burst_remaining);

  OpenLoopSpec spec_;
  Rng rng_;
  uint64_t seq_lba_ = 0;
  uint64_t arrivals_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_WORKLOAD_OPEN_LOOP_H_
