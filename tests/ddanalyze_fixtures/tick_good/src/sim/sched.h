#ifndef DAREDEVIL_SRC_SIM_SCHED_H_
#define DAREDEVIL_SRC_SIM_SCHED_H_

using Tick = long long;
struct TickDuration {
  long long ns = 0;
};

struct Scheduler {
  void After(TickDuration delay, int tag);
};

#endif  // DAREDEVIL_SRC_SIM_SCHED_H_
