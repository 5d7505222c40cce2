// A helper outside src/stats/ that mutates the simulation. Not an entry
// point itself - it only becomes a finding when observer code reaches it.
#ifndef DAREDEVIL_SRC_CORE_HELPER_H_
#define DAREDEVIL_SRC_CORE_HELPER_H_

class Simulator;

inline void NudgeClock(Simulator* sim) {
  sim->ScheduleAt(9);  // the transitive mutation the observer walk must find
}

#endif  // DAREDEVIL_SRC_CORE_HELPER_H_
