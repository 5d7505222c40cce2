// BAD: ambient randomness and wall-clock seed sources; every draw must come
// from the shard's seeded Rng stream.
#include <chrono>  // flagged: wall-clock header
#include <random>  // flagged: ambient generator header

unsigned Seed() {
  std::random_device rd;  // flagged: ambient entropy
  return rd();
}

int Draw() {
  std::mt19937 gen(Seed());  // flagged: std engine outside Rng
  return static_cast<int>(gen());
}

long Stamp() {
  return time(nullptr);  // flagged: wall-clock call
}

long Elapsed() {
  std::chrono::nanoseconds span(5);  // flagged: std::chrono outside tools
  return static_cast<long>(span.count());
}

int Legacy() {
  srand(42);      // flagged: libc generator
  return rand();  // flagged: libc generator call
}
