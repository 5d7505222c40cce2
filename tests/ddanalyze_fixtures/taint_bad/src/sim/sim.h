// Simulation-owned state for the taint_bad fixture.
#ifndef DAREDEVIL_SRC_SIM_SIM_H_
#define DAREDEVIL_SRC_SIM_SIM_H_

class Simulator {
 public:
  void ScheduleAt(long when);      // non-const: mutates the event queue
  long now() const;
};

#endif  // DAREDEVIL_SRC_SIM_SIM_H_
