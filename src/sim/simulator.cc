#include "src/sim/simulator.h"

#include <limits>

#include "src/core/invariant.h"

namespace daredevil {

inline bool Simulator::FireNext(Tick limit) {
  Tick at = 0;
  const uint32_t slot = engine_.PopEarliest(limit, &at);
  if (slot == kNilEvent) {
    return false;
  }
  // Pop-time monotonicity: the DES clock must never move backwards. The
  // engine clamps past timestamps at push, so a regression here means
  // ladder-order corruption.
  DD_CHECK_LE(now_, at) << "event-engine pop-time regression";
  now_ = at;
  ++events_processed_;
  engine_.Fire(slot);
  return true;
}

bool Simulator::Step() {
  return FireNext(std::numeric_limits<Tick>::max());
}

void Simulator::RunUntil(Tick t) {
  // One engine pop per event; same-tick batches drain off one bucket chain
  // (including events the callbacks schedule at the current tick, which
  // fire in this same pass).
  while (FireNext(t)) {
  }
  if (now_ < t) {
    now_ = t;
  }
}

void Simulator::RunUntilIdle() {
  while (FireNext(std::numeric_limits<Tick>::max())) {
  }
}

}  // namespace daredevil
