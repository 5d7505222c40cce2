// BAD: stats storing mutable aliases to shard-local roots. Observability
// must borrow through parameters, keep const views, or copy fields.
#ifndef DAREDEVIL_SRC_STATS_OBSERVER_H_
#define DAREDEVIL_SRC_STATS_OBSERVER_H_

struct Simulator;
struct Rng;

struct Observer {
  void Sample(Simulator* sim);  // borrow through a parameter: fine

  Simulator* sim_ = nullptr;    // stored mutable alias in stats: flagged
  Rng* stream_ = nullptr;       // Rng aliases are never stored: flagged
};

#endif  // DAREDEVIL_SRC_STATS_OBSERVER_H_
