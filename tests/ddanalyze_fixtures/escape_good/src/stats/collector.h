// GOOD: the record copies fields; the one raw pointer is waived with a reason.
#ifndef DAREDEVIL_SRC_STATS_COLLECTOR_H_
#define DAREDEVIL_SRC_STATS_COLLECTOR_H_
#include <cstdint>

struct Request;

struct SampleRecord {
  uint64_t request_id = 0;
  int64_t submit_tick = 0;
};

struct Collector {
  void Observe(const SampleRecord& rec);

  Request* scratch_ = nullptr;  // ddanalyze: escape-ok(cleared before pool recycle)
};

#endif  // DAREDEVIL_SRC_STATS_COLLECTOR_H_
