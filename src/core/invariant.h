// Simulation-correctness assertion library (DD_CHECK) and the request
// lifecycle verifier.
//
// Every figure this repository produces is a per-stage latency attribution,
// so the simulation is only as trustworthy as its event ordering and request
// lifecycle. The DD_* macros replace bare assert(): they carry simulation
// context (request id, tick, stage) to the failure report, and they are
// compiled in or out as a unit under the DAREDEVIL_INVARIANTS CMake option
// (ON in Debug/CI builds, OFF in Release bench builds). When disabled the
// condition expression is never evaluated - checks are free - but it still
// parses, so variables referenced only by checks do not become unused.
//
// Usage:
//   DD_CHECK(nsq >= 0) << "rq=" << rq->id << " tick=" << now;
//   DD_CHECK_LE(rq->t.submit, rq->t.nsq_enqueue);
//   DD_FAIL() << "unreachable arbitration state";
//
// The LifecycleChecker is the stateful half: storage stacks feed it every
// submission, doorbell and completion, and it validates the monotone stage
// chain, in-flight uniqueness, and NSQ/NCQ routing consistency. Its methods
// return false (and record a message) instead of aborting so tests can
// deliberately corrupt a timeline and assert the checker rejects it; the
// wired call sites wrap it in DD_CHECK, which aborts with the recorded
// violation.
#ifndef DAREDEVIL_SRC_CORE_INVARIANT_H_
#define DAREDEVIL_SRC_CORE_INVARIANT_H_

#include <cstdint>
#include <map>
#include <sstream>
#include <string>

#include "src/sim/clock.h"
#include "src/stack/request.h"

// DAREDEVIL_INVARIANTS is normally injected by CMake (=1 or =0). When built
// outside CMake, default to following NDEBUG like assert() does.
#ifndef DAREDEVIL_INVARIANTS
#ifdef NDEBUG
#define DAREDEVIL_INVARIANTS 0
#else
#define DAREDEVIL_INVARIANTS 1
#endif
#endif

namespace daredevil {
namespace invariant_internal {

// Collects the streamed failure context; the destructor prints the report to
// stderr and aborts. Only ever constructed on a failed check.
class FailMsg {
 public:
  FailMsg(const char* expr, const char* file, int line);
  ~FailMsg();

  template <typename T>
  FailMsg& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  std::ostringstream os_;
};

// Makes the else-branch of the DD_CHECK ternary void regardless of how much
// context was streamed (glog's LogMessageVoidify idiom).
struct Voidify {
  void operator&(const FailMsg&) const {}
};

}  // namespace invariant_internal

// True when lifecycle invariants are compiled into this translation unit.
inline constexpr bool DdInvariantsEnabled() { return DAREDEVIL_INVARIANTS != 0; }

// Aborts (after printing the streamed context) when cond is false. The
// condition - and everything streamed after the macro - is not evaluated when
// invariants are compiled out.
#define DD_CHECK(cond)                                                       \
  (DAREDEVIL_INVARIANTS == 0 || (cond))                                      \
      ? (void)0                                                              \
      : ::daredevil::invariant_internal::Voidify() &                         \
            ::daredevil::invariant_internal::FailMsg(#cond, __FILE__, __LINE__)

#define DD_CHECK_LE(a, b)                                             \
  DD_CHECK((a) <= (b)) << #a << "=" << (a) << " vs " << #b << "=" << (b) \
                       << ": "

#define DD_CHECK_EQ(a, b)                                             \
  DD_CHECK((a) == (b)) << #a << "=" << (a) << " vs " << #b << "=" << (b) \
                       << ": "

// Marks a state the simulation must never reach.
#define DD_FAIL()                                                            \
  (DAREDEVIL_INVARIANTS == 0)                                                \
      ? (void)0                                                              \
      : ::daredevil::invariant_internal::Voidify() &                         \
            ::daredevil::invariant_internal::FailMsg("DD_FAIL", __FILE__,    \
                                                     __LINE__)

// Stateful verifier for the request lifecycle (Figure 1's I/O service
// routine). One instance lives in each StorageStack; the DES is
// single-threaded so no synchronization is needed.
//
// Validated invariants:
//   * no re-submission of an in-flight request id (OnSubmit)
//   * no double completion / completion of a never-submitted id (OnComplete)
//   * the monotone stage chain over the stamps the request carries, in
//     kTimelineStamps order (src/core/types.h), none after the check tick
//   * routed_nsq matches the NSQ the CQE reports, and the CQE was drained
//     from the NCQ statically bound to that NSQ
//   * NSQ doorbell tails never regress (OnDoorbell)
//
// Methods return true when the transition is legal. On violation they record
// a human-readable message (last_violation()), bump violations(), and return
// false - callers wrap them in DD_CHECK so simulations abort while unit tests
// can assert rejection directly.
class LifecycleChecker {
 public:
  bool OnSubmit(const Request& rq, Tick now);
  bool OnComplete(const Request& rq, Tick now, int cqe_sqid, int drained_ncq,
                  int bound_ncq);
  // Host watchdog aborted the request's outstanding attempt: the id leaves
  // the in-flight set (a retry re-enters via OnSubmit). Aborting an id that
  // is not in flight is a violation — the watchdog double-fired or raced a
  // delivered completion.
  bool OnAbort(const Request& rq, Tick now);
  bool OnDoorbell(int nsq, uint64_t tail);

  // Validates only the monotone stage chain of rq (also used by OnComplete).
  bool CheckStageChain(const Request& rq, Tick now);

  uint64_t violations() const { return violations_; }
  const std::string& last_violation() const { return last_violation_; }
  size_t in_flight() const { return in_flight_.size(); }
  void Reset();

 private:
  bool Violation(std::string msg);

  // Ordered containers: the checker must not itself introduce iteration-order
  // nondeterminism into anything observable.
  std::map<uint64_t, Tick> in_flight_;       // request id -> submit tick
  std::map<int, uint64_t> doorbell_tails_;   // nsq -> last doorbell tail
  uint64_t violations_ = 0;
  std::string last_violation_;
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_CORE_INVARIANT_H_
