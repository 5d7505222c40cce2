// BAD: stats storing Request pointers dereferences recycled pool slots.
#ifndef DAREDEVIL_SRC_STATS_COLLECTOR_H_
#define DAREDEVIL_SRC_STATS_COLLECTOR_H_
#include <vector>

struct Request;

struct Collector {
  void Observe(Request* rq);

  Request* last_rq_ = nullptr;
  std::vector<Request*> inflight_;
};

#endif  // DAREDEVIL_SRC_STATS_COLLECTOR_H_
