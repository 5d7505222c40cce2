// Simulation-owned state for the purity_good fixture: const reads are the
// only thing observers touch, and the one sanctioned scheduling site in the
// observer carries a waiver.
#ifndef DAREDEVIL_SRC_SIM_SIM_H_
#define DAREDEVIL_SRC_SIM_SIM_H_

class Simulator {
 public:
  void ScheduleAt(long when);      // non-const: mutates the event queue
  long now() const;                // const: safe to read from observers

  // A well-behaved annotated observer: reads, never writes.
  DD_OBSERVER long Peeks() const { return peeks_; }

 private:
  long peeks_ = 0;
};

#endif  // DAREDEVIL_SRC_SIM_SIM_H_
