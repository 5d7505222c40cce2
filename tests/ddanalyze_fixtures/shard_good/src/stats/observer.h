// GOOD: stats borrows via parameters, stores const views, and owns its own
// metrics machinery.
#ifndef DAREDEVIL_SRC_STATS_OBSERVER_H_
#define DAREDEVIL_SRC_STATS_OBSERVER_H_

struct Simulator;
struct Machine;
struct MetricsRegistry;

struct Observer {
  void Sample(Simulator* sim, MetricsRegistry* registry);  // borrows: fine

  const Machine* machine_ = nullptr;  // const view: shared-immutable, fine
  MetricsRegistry* sink_ = nullptr;   // stats owns the metrics machinery
};

#endif  // DAREDEVIL_SRC_STATS_OBSERVER_H_
