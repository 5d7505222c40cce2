// BAD: the right #ifndef, but the #define drops the trailing underscore.
#ifndef DAREDEVIL_SRC_WORKLOAD_HALF_H_
#define DAREDEVIL_SRC_WORKLOAD_HALF_H

int Half(int x);

#endif  // DAREDEVIL_SRC_WORKLOAD_HALF_H_
