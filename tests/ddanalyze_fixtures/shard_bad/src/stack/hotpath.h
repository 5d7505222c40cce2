// BAD: the stack reaching into the engine internals. EventArena belongs to
// sim.engine/sim only; everything above drives it through Simulator's API.
#ifndef DAREDEVIL_SRC_STACK_HOTPATH_H_
#define DAREDEVIL_SRC_STACK_HOTPATH_H_

struct EventArena;

struct HotPath {
  EventArena* arena_ = nullptr;  // engine internals leaked above sim: flagged
};

#endif  // DAREDEVIL_SRC_STACK_HOTPATH_H_
