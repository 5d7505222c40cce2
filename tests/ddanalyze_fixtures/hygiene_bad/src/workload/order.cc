// BAD: range-for over unordered containers, one per declaration shape
// (the name is followed by ')', ';', '=', '{' or ',').
#include <unordered_map>
#include <unordered_set>
#include <vector>

int SumAll(const std::unordered_multiset<int> bag) {
  std::unordered_map<int, int> by_id;
  std::unordered_set<int> seen = {1, 2};
  std::unordered_multimap<int, std::vector<int>> groups{};
  int total = 0;
  for (int v : bag) total += v;                     // flagged
  for (const auto& [k, v] : by_id) total += k + v;  // flagged
  for (int v : seen) total += v;                    // flagged
  for (const auto& kv : groups) total += kv.first;  // flagged
  return total;
}

int Floor(const std::unordered_map<int, int>& counts, int floor) {
  for (const auto& [k, v] : counts) floor += v;  // flagged
  return floor;
}
