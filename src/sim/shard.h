// ShardContext: the per-shard mutable roots, aggregated in one place.
//
// A *shard* is one independent simulation partition — a simulator (which owns
// the event engine and its arena), the RNG stream every draw in the shard
// flows from, and the metrics sink the shard's layers register into. Today
// every scenario runs exactly one shard on one thread; the sharded parallel
// simulation (ROADMAP item 2) will run N of these side by side, synchronized
// at conservative time-window barriers. Aggregating the mutable roots here is
// what makes that step mechanical — and what gives tools/ddanalyze's
// shard-ownership pass a concrete ownership root to enforce: anything a
// component needs beyond its borrowed parameters must reach it through the
// context, never through a global.
//
// Two shards never share mutable state. The TSan smoke harness
// (tests/tsan_smoke_test.cc) runs two seeded ShardContext-backed scenarios on
// two threads under -fsanitize=thread to hold that line dynamically; the
// ddanalyze global-state and shard-ownership passes hold it statically.
#ifndef DAREDEVIL_SRC_SIM_SHARD_H_
#define DAREDEVIL_SRC_SIM_SHARD_H_

#include <cstdint>

#include "src/sim/rng.h"
#include "src/sim/simulator.h"

namespace daredevil {

// stats sits above sim in the layer DAG (DESIGN.md §7.1), so the sink slot
// is declaration-only here; the workload layer attaches the registry it owns.
class MetricsRegistry;

class ShardContext {
 public:
  // The shard's RNG stream is seeded directly with the scenario seed, so a
  // single-shard run draws the exact sequence the pre-shard code drew from
  // its local master Rng — fingerprints stay byte-identical.
  explicit ShardContext(uint64_t seed) : rng_(seed) {}
  ShardContext(const ShardContext&) = delete;
  ShardContext& operator=(const ShardContext&) = delete;

  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }

  // The stream all randomness in this shard forks from (rng-discipline pass:
  // no ambient generators, no wall-clock seeds). Per-tenant generators take
  // rng().Fork() so tenant streams are independent but seed-deterministic.
  Rng& rng() { return rng_; }

  // The metrics sink the shard's layers register into. Owned by the runner
  // (registry lifetime = one run), attached for the run's duration; null
  // until then. Each shard gets its own registry — metrics never cross
  // shards outside the barrier.
  void AttachMetrics(MetricsRegistry* registry) { metrics_ = registry; }
  MetricsRegistry* metrics() const { return metrics_; }

 private:
  Simulator sim_;  // owns the event engine + event arena
  Rng rng_;
  MetricsRegistry* metrics_ = nullptr;
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_SIM_SHARD_H_
