#ifndef DAREDEVIL_SRC_SIM_B_H_
#define DAREDEVIL_SRC_SIM_B_H_
#include "src/sim/a.h"

struct B {
  int b = 0;
};

#endif  // DAREDEVIL_SRC_SIM_B_H_
