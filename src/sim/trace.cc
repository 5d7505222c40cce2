#include "src/sim/trace.h"

#include <cstdio>
#include <ostream>

namespace daredevil {

const char* TraceCategoryName(TraceCategory c) {
  const int i = static_cast<int>(c);
  if (i < 0 || i >= kNumTraceCategories) {
    return "?";
  }
  return kTraceCategoryNames[static_cast<size_t>(i)];
}

TraceLog::TraceLog(size_t capacity) : capacity_(capacity > 0 ? capacity : 1) {}

void TraceLog::Record(Tick at, TraceCategory category, uint64_t id, int64_t a,
                      int64_t b) {
  ++total_;
  ++counts_[static_cast<int>(category)];
  if (events_.size() == capacity_) {
    events_.pop_front();
  }
  events_.push_back(TraceEvent{at, category, id, a, b});
}

std::vector<TraceEvent> TraceLog::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  for (size_t i = 0; i < events_.size(); ++i) {
    out.push_back(events_[i]);
  }
  return out;
}

void TraceLog::WriteCsv(std::ostream& out) const {
  out << "time_ns,category,id,a,b\n";
  char row[128];
  for (size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    const int n = std::snprintf(
        row, sizeof(row), "%lld,%s,%llu,%lld,%lld\n",
        static_cast<long long>(e.at), TraceCategoryName(e.category),
        static_cast<unsigned long long>(e.id), static_cast<long long>(e.a),
        static_cast<long long>(e.b));
    out.write(row, n);
  }
}

void TraceLog::Clear() {
  events_.clear();
  total_ = 0;
  for (auto& c : counts_) {
    c = 0;
  }
}

}  // namespace daredevil
