// BAD: every shape of mutable static-storage state the global-state pass
// flags — each one is shared between shards the moment two simulators run
// on two threads.
#ifndef DAREDEVIL_SRC_SIM_STATE_H_
#define DAREDEVIL_SRC_SIM_STATE_H_

int g_total = 0;                 // namespace-scope mutable variable
extern int g_remote;             // extern declaration of one

thread_local int tls_count = 0;  // per-thread state breaks shard ownership

struct Counter {
  static int instances_;         // non-const class static
  static constexpr int kMax = 8;  // exempt: constexpr
  int per_instance = 0;           // exempt: instance state
};

inline int NextId() {
  static int next = 0;           // mutable function-local static
  return ++next;
}

#endif  // DAREDEVIL_SRC_SIM_STATE_H_
