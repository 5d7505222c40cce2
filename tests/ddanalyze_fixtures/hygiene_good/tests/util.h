// GOOD: tests/ headers carry the canonical guard too.
#ifndef DAREDEVIL_TESTS_UTIL_H_
#define DAREDEVIL_TESTS_UTIL_H_

int Helper();

#endif  // DAREDEVIL_TESTS_UTIL_H_
