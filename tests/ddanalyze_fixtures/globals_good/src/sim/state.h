// GOOD: immutable static storage in all its spellings, plus one waived
// legacy knob. None of this is flagged: shared-immutable is shard-safe.
#ifndef DAREDEVIL_SRC_SIM_STATE_H_
#define DAREDEVIL_SRC_SIM_STATE_H_

constexpr int kMaxShards = 64;
const char* const kName = "daredevil";
inline constexpr double kRatio = 0.5;

namespace detail {
constexpr long kTable[] = {1, 2, 3};
}  // namespace detail

struct Table {
  static constexpr int kWidth = 4;
  static const int kDepth;
  static inline const int depth_limit = 9;  // const after inline
  static int BucketIndex(long value);       // a member function, not data
  int per_instance = 0;
};

inline int Lookup(int i) {
  static const int kSmall[] = {1, 2, 3};
  return kSmall[i];
}

inline int Twice(int x) { return 2 * x; }

int g_legacy_knob = 1;  // ddanalyze: global-ok(burning down under ROADMAP item 2)

#endif  // DAREDEVIL_SRC_SIM_STATE_H_
