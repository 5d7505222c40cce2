// YCSB workload driver over the mini KV store (§7.4, Fig. 12a-12d).
//
// Implements the standard core workload mixes with zipfian key selection:
//   A: 50% read / 50% update        B: 95% read / 5% update
//   E: 95% scan / 5% insert         F: 50% read / 50% read-modify-write
#ifndef DAREDEVIL_SRC_APPS_YCSB_H_
#define DAREDEVIL_SRC_APPS_YCSB_H_

#include <functional>
#include <string>

#include "src/apps/kvstore.h"
#include "src/sim/rng.h"
#include "src/stats/histogram.h"

namespace daredevil {

enum class YcsbOp { kRead, kUpdate, kInsert, kScan, kReadModifyWrite };
inline constexpr int kNumYcsbOps = 5;

const char* YcsbOpName(YcsbOp op);

struct YcsbConfig {
  char workload = 'A';      // A, B, E, or F
  uint64_t record_count = 200000;
  double zipf_theta = 0.99;
  int max_scan_len = 100;
  TickDuration think_time{0};  // delay between ops (closed loop when 0)
};

// One YCSB client thread driving a KvStore in closed loop.
class YcsbWorkload {
 public:
  YcsbWorkload(KvStore* store, const YcsbConfig& config, Rng rng,
               Simulator* sim, Tick measure_start, Tick measure_end);
  // Draws keys from `zipf`, which must span config.record_count keys with
  // skew config.zipf_theta. Clients of one shape can share one generator
  // and so compute its record_count-term zeta sum once.
  YcsbWorkload(KvStore* store, const YcsbConfig& config,
               const ZipfianGenerator& zipf, Rng rng, Simulator* sim,
               Tick measure_start, Tick measure_end);

  // Runs ops back-to-back until the simulation ends.
  void Start();

  // Draws the next operation type for the configured mix (exposed for tests).
  YcsbOp NextOp();

  const Histogram& OpLatency(YcsbOp op) const {
    return latency_[static_cast<int>(op)];
  }
  uint64_t OpCount(YcsbOp op) const { return counts_[static_cast<int>(op)]; }
  uint64_t total_ops() const { return total_ops_; }

 private:
  void RunOne();
  void Finish(YcsbOp op, Tick started);

  KvStore* store_;
  YcsbConfig config_;
  Rng rng_;
  ZipfianGenerator zipf_;
  Simulator* sim_;
  Tick measure_start_;
  Tick measure_end_;
  uint64_t insert_cursor_;

  Histogram latency_[kNumYcsbOps];
  uint64_t counts_[kNumYcsbOps] = {0, 0, 0, 0, 0};
  uint64_t total_ops_ = 0;
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_APPS_YCSB_H_
