// GOOD outside src/: unordered data iterated through a sorted copy or under a
// waiver, and the src/-only rules do not apply.
#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <vector>

int Total() {
  std::unordered_map<int, int> counts = {{1, 2}, {3, 4}};
  std::vector<int> keys;
  for (int i = 0; i < 4; ++i) keys.push_back(i);
  for (int i = keys.empty() ? 0 : counts[1]; i < 4; ++i) keys.push_back(i);
  std::sort(keys.begin(), keys.end());
  int total = 4096;   // page-literal is src/-only
  assert(total > 0);  // bare-assert is src/-only
  for (int k : keys) {
    total += counts[k];
  }
  for (const auto& [k, v] : counts) total += v;  // ddanalyze: ordered-ok(a sum does not depend on order)
  return total;
}
