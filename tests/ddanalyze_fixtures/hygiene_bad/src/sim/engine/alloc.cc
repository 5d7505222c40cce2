// BAD: every allocation shape the engine-alloc rule bans under
// src/sim/engine/, one per line.
#include <cstdlib>
#include <functional>
#include <memory>

#define ENGINE_NEW(T) new T  // flagged: macro bodies are read too

void Allocate() {
  std::function<void()> cb;           // flagged: std::function
  auto a = std::make_unique<int>(1);  // flagged: std::make_unique
  auto b = std::make_shared<int>(2);  // flagged: std::make_shared
  auto c = make_unique<int>(3);       // flagged: unqualified make_unique
  auto d = make_shared<int>(4);       // flagged: unqualified make_shared
  void* e = malloc(16);               // flagged: malloc
  void* f = calloc(4, 4);             // flagged: calloc
  e = realloc(e, 32);                 // flagged: realloc
  int* g = new int(5);                // flagged: non-placement new
  int* h = ::new int(6);              // flagged: global non-placement new
}
