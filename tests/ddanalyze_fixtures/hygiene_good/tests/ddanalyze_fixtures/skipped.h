// Never scanned: tests/ddanalyze_fixtures/ holds analyzer input, not code.
// Scanned, this file would fail include-guard and unordered-iter.
#pragma once
#include <unordered_set>

inline int Sum(std::unordered_set<int> s) {
  int t = 0;
  for (int v : s) t += v;
  return t;
}
