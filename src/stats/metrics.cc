#include "src/stats/metrics.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

#include "src/core/invariant.h"
#include "src/sim/cpu.h"
#include "src/stack/request.h"

namespace daredevil {

// --- JsonWriter -----------------------------------------------------------

char* WriteJsonEscaped(char* out, std::string_view s) {
  for (const char c : s) {
    char escape = 0;
    switch (c) {
      case '"':
      case '\\':
        escape = c;
        break;
      case '\n':
        escape = 'n';
        break;
      case '\t':
        escape = 't';
        break;
      case '\r':
        escape = 'r';
        break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) {
          *out++ = c;
          continue;
        }
        escape = 'u';
    }
    *out++ = '\\';
    *out++ = escape;
    if (escape == 'u') {
      constexpr char kHex[] = "0123456789abcdef";
      const auto u = static_cast<unsigned char>(c);
      *out++ = '0';
      *out++ = '0';
      *out++ = kHex[u >> 4];
      *out++ = kHex[u & 0xf];
    }
  }
  return out;
}

namespace {

// Appends `s` quoted and escaped.
void AppendJsonString(std::string& out, std::string_view s) {
  const size_t at = out.size();
  out.resize(at + 2 + kJsonEscapeGrowth * s.size());
  char* p = out.data() + at;
  *p++ = '"';
  p = WriteJsonEscaped(p, s);
  *p++ = '"';
  out.resize(static_cast<size_t>(p - out.data()));
}

template <typename Integer>
void AppendJsonInteger(std::string& out, Integer v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

}  // namespace

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) {
      out_ += ',';
    }
    first_.back() = false;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  DD_CHECK(!first_.empty()) << "EndObject with no open scope";
  first_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  DD_CHECK(!first_.empty()) << "EndArray with no open scope";
  first_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view k) {
  BeforeValue();
  AppendJsonString(out_, k);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view v) {
  BeforeValue();
  AppendJsonString(out_, v);
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t v) {
  BeforeValue();
  AppendJsonInteger(out_, v);
  return *this;
}

JsonWriter& JsonWriter::UInt(uint64_t v) {
  BeforeValue();
  AppendJsonInteger(out_, v);
  return *this;
}

JsonWriter& JsonWriter::Double(double v) {
  BeforeValue();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[40];
  // %.15g keeps integer-valued doubles exact up to ~1e15 (our tick range).
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool v) {
  BeforeValue();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  BeforeValue();
  out_ += json;
  return *this;
}

void AppendHistogramJson(JsonWriter& w, const Histogram& h) {
  w.BeginObject();
  w.Key("count").UInt(h.count());
  w.Key("min").Int(h.min());
  w.Key("mean").Double(h.Mean());
  w.Key("p50").Int(h.P50());
  w.Key("p90").Int(h.P90());
  w.Key("p99").Int(h.P99());
  w.Key("p999").Int(h.P999());
  w.Key("max").Int(h.max());
  w.EndObject();
}

std::string HistogramToJson(const Histogram& h) {
  JsonWriter w;
  AppendHistogramJson(w, h);
  return w.str();
}

// --- StageBreakdown -------------------------------------------------------

void StageBreakdown::Record(const Request& rq) {
  if (!rq.t.HasDeviceStamps()) {
    return;
  }
  for (const StageSpan& span : kStageSpans) {
    stages_[static_cast<int>(span.stage)].Record(rq.t.*span.end -
                                                 rq.t.*span.begin);
  }
}

void StageBreakdown::Merge(const StageBreakdown& other) {
  for (int i = 0; i < kNumStages; ++i) {
    stages_[i].Merge(other.stages_[i]);
  }
}

void StageBreakdown::Reset() {
  for (auto& h : stages_) {
    h.Reset();
  }
}

double StageBreakdown::TotalMeanNs() const {
  double total = 0.0;
  for (const auto& h : stages_) {
    total += h.Mean();
  }
  return total;
}

void StageBreakdown::AppendJson(JsonWriter& w) const {
  w.BeginObject();
  for (const StageSpan& span : kStageSpans) {
    w.Key(span.json_name);
    AppendHistogramJson(w, stage(span.stage));
  }
  w.EndObject();
}

// --- MetricsRegistry ------------------------------------------------------

uint64_t* MetricsRegistry::Counter(const std::string& name) {
  return &counters_[name];
}

Histogram* MetricsRegistry::Hist(const std::string& name) {
  return &hists_[name];
}

void MetricsRegistry::RegisterGauge(const std::string& name,
                                    std::function<double()> fn) {
  gauges_[name] = std::move(fn);
}

double MetricsRegistry::Value(const std::string& name) const {
  if (auto it = counters_.find(name); it != counters_.end()) {
    return static_cast<double>(it->second);
  }
  if (auto it = gauges_.find(name); it != gauges_.end()) {
    return it->second();
  }
  return 0.0;
}

bool MetricsRegistry::Has(const std::string& name) const {
  return counters_.count(name) > 0 || gauges_.count(name) > 0 ||
         hists_.count(name) > 0;
}

std::map<std::string, double> MetricsRegistry::Snapshot() const {
  std::map<std::string, double> out;
  for (const auto& [name, value] : counters_) {
    out[name] = static_cast<double>(value);
  }
  for (const auto& [name, fn] : gauges_) {
    out[name] = fn();
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  for (const auto& [name, value] : Snapshot()) {
    w.Key(name).Double(value);
  }
  for (const auto& [name, hist] : hists_) {
    w.Key(name);
    AppendHistogramJson(w, hist);
  }
  w.EndObject();
  return w.str();
}

// --- Machine gauges -------------------------------------------------------

void RegisterMachineMetrics(const Machine& machine, MetricsRegistry* registry) {
  const Machine* m = &machine;
  registry->RegisterGauge("machine.cross_core_posts", [m]() {
    return static_cast<double>(m->cross_core_posts());
  });
  registry->RegisterGauge("machine.total_busy_ns", [m]() {
    return static_cast<double>(m->total_busy_ns().ticks());
  });
  static constexpr struct {
    WorkLevel level;
    const char* name;
  } kLevels[] = {{WorkLevel::kIrq, "machine.busy_irq_ns"},
                 {WorkLevel::kKernel, "machine.busy_kernel_ns"},
                 {WorkLevel::kUser, "machine.busy_user_ns"}};
  for (const auto& entry : kLevels) {
    const WorkLevel level = entry.level;
    registry->RegisterGauge(entry.name, [m, level]() {
      TickDuration total;
      for (int i = 0; i < m->num_cores(); ++i) {
        total += m->core(i).busy_ns(level);
      }
      return static_cast<double>(total.ticks());
    });
  }
}

}  // namespace daredevil
