// BAD outside src/: unordered-iter applies to bench/ and tests/ too, while
// page-literal and bare-assert stay src/-only.
#include <cassert>
#include <unordered_map>

int Total() {
  std::unordered_map<int, int> counts = {{1, 2}};
  assert(!counts.empty());  // not flagged: bare-assert is src/-only
  int total = 4096;         // not flagged: page-literal is src/-only
  for (const auto& [k, v] : counts) total += v;  // flagged
  return total;
}
