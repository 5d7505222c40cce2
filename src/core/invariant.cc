#include "src/core/invariant.h"

#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <utility>

namespace daredevil {
namespace invariant_internal {

FailMsg::FailMsg(const char* expr, const char* file, int line) {
  os_ << "DD_CHECK failed: " << expr << " at " << file << ":" << line << ": ";
}

FailMsg::~FailMsg() {
  std::fputs(os_.str().c_str(), stderr);
  std::fputc('\n', stderr);
  std::fflush(stderr);
  std::abort();
}

}  // namespace invariant_internal

bool LifecycleChecker::Violation(std::string msg) {
  ++violations_;
  last_violation_ = std::move(msg);
  return false;
}

void LifecycleChecker::Reset() {
  in_flight_.clear();
  doorbell_tails_.clear();
  violations_ = 0;
  last_violation_.clear();
}

bool LifecycleChecker::OnSubmit(const Request& rq, Tick now) {
  auto [it, inserted] = in_flight_.emplace(rq.id, now);
  if (!inserted) {
    std::ostringstream os;
    os << "re-submission of in-flight request id=" << rq.id << " at tick "
       << now << " (first submitted at tick " << it->second << ")";
    return Violation(os.str());
  }
  return true;
}

bool LifecycleChecker::CheckStageChain(const Request& rq, Tick now) {
  // Unreached stages are 0 and skipped; every stamped stage must be at or
  // after the latest earlier stamp, and none may lie in the future.
  Tick high_water = 0;
  std::string_view high_name = "start";
  for (const TimelineStamp& stamp : kTimelineStamps) {
    const Tick t = rq.t.*stamp.field;
    if (t == 0) {
      continue;
    }
    if (t < high_water) {
      std::ostringstream os;
      os << "stage regression on request id=" << rq.id << ": " << stamp.name
         << "=" << t << " < " << high_name << "=" << high_water
         << " (checked at tick " << now << ")";
      return Violation(os.str());
    }
    high_water = t;
    high_name = stamp.name;
  }
  if (high_water > now) {
    std::ostringstream os;
    os << "future stage stamp on request id=" << rq.id << ": " << high_name
       << "=" << high_water << " > now=" << now;
    return Violation(os.str());
  }
  return true;
}

bool LifecycleChecker::OnComplete(const Request& rq, Tick now, int cqe_sqid,
                                  int drained_ncq, int bound_ncq) {
  auto it = in_flight_.find(rq.id);
  if (it == in_flight_.end()) {
    std::ostringstream os;
    os << "completion of request id=" << rq.id << " at tick " << now
       << " that is not in flight (double completion or never submitted)";
    return Violation(os.str());
  }
  in_flight_.erase(it);
  if (rq.routed_nsq != cqe_sqid) {
    std::ostringstream os;
    os << "request id=" << rq.id << " routed to NSQ " << rq.routed_nsq
       << " but its CQE came back from NSQ " << cqe_sqid << " (tick " << now
       << ")";
    return Violation(os.str());
  }
  if (drained_ncq != bound_ncq) {
    std::ostringstream os;
    os << "request id=" << rq.id << " drained from NCQ " << drained_ncq
       << " but NSQ " << cqe_sqid << " is bound to NCQ " << bound_ncq
       << " (tick " << now << ")";
    return Violation(os.str());
  }
  return CheckStageChain(rq, now);
}

bool LifecycleChecker::OnAbort(const Request& rq, Tick now) {
  auto it = in_flight_.find(rq.id);
  if (it == in_flight_.end()) {
    std::ostringstream os;
    os << "abort of request id=" << rq.id << " at tick " << now
       << " that is not in flight (double abort or raced a completion)";
    return Violation(os.str());
  }
  in_flight_.erase(it);
  return true;
}

bool LifecycleChecker::OnDoorbell(int nsq, uint64_t tail) {
  uint64_t& last = doorbell_tails_[nsq];
  if (tail < last) {
    std::ostringstream os;
    os << "doorbell regression on NSQ " << nsq << ": tail " << tail
       << " < previously rung tail " << last;
    return Violation(os.str());
  }
  last = tail;
  return true;
}

}  // namespace daredevil
