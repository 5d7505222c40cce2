// GOOD: engine-alloc covers src/sim/engine/ only; the rest of src/ may
// allocate.
#include <functional>
#include <memory>

int RunOnce() {
  std::function<int()> cb = [] { return 1; };
  auto owned = std::make_unique<int>(cb());
  int* raw = new int(*owned);
  const int v = *raw;
  delete raw;
  return v;
}
