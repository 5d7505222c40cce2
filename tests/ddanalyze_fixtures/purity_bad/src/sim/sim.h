// Simulation-owned state for the purity_bad fixture: a Simulator with a
// mutating scheduler entry, a const clock read, and a DD_OBSERVER-annotated
// accessor that cheats by bumping a member.
#ifndef DAREDEVIL_SRC_SIM_SIM_H_
#define DAREDEVIL_SRC_SIM_SIM_H_

class Simulator {
 public:
  void ScheduleAt(long when);      // non-const: mutates the event queue
  long now() const;                // const: safe to read from observers

  // BAD: annotated as an observer but writes simulation state.
  DD_OBSERVER long PeekAndCount() {
    ++peeks_;
    return now();
  }

 private:
  long peeks_ = 0;
};

#endif  // DAREDEVIL_SRC_SIM_SIM_H_
