// GOOD: the engine's sanctioned shapes: placement new, the <new> header, and
// the one waived slab allocation.
#include <memory>
#include <new>
#include <vector>

struct Slot {
  explicit Slot(int v) : value(v) {}
  int value;
};

void Place(void* buf, std::vector<std::unique_ptr<Slot[]>>* slabs) {
  ::new (buf) Slot(7);  // placement new, qualified
  new (buf) Slot(8);    // placement new, unqualified
  // std::function, malloc(16) and new int in a comment are not code.
  const char* note = "std::make_unique<int>() in a string is not code";
  (void)note;
  slabs->push_back(std::make_unique<Slot[]>(64));  // ddanalyze: enginealloc-ok(slab growth is the one sanctioned site)
}
