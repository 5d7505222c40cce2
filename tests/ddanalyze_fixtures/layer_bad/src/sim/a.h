// BAD: a.h -> b.h -> a.h is an include cycle.
#ifndef DAREDEVIL_SRC_SIM_A_H_
#define DAREDEVIL_SRC_SIM_A_H_
#include "src/sim/b.h"

struct A {
  int a = 0;
};

#endif  // DAREDEVIL_SRC_SIM_A_H_
