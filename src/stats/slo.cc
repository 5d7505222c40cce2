#include "src/stats/slo.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/stats/holb.h"
#include "src/stats/metrics.h"
#include "src/stats/table.h"

namespace daredevil {

namespace {

// The budget never collapses to zero (a 100% target would make every burn
// rate infinite and unserializable), so the target is capped just below it.
constexpr double kMaxTargetPercentile = 99.999;

SloSpec NormalizeSpec(SloSpec spec) {
  spec.target_percentile =
      std::clamp(spec.target_percentile, 0.0, kMaxTargetPercentile);
  if (spec.window <= 0) {
    spec.window = 1;
  }
  if (spec.slow_windows < 1) {
    spec.slow_windows = 1;
  }
  return spec;
}

// Allowed bad-request fraction: p99 -> 0.01.
double BudgetFraction(const SloSpec& spec) {
  return 1.0 - spec.target_percentile / 100.0;
}

}  // namespace

// --- SloTenantState --------------------------------------------------------

SloTenantState::SloTenantState(std::string tenant, uint64_t tenant_id,
                               const SloSpec& spec, Tick origin, Tick horizon)
    : tenant_(std::move(tenant)),
      tenant_id_(tenant_id),
      spec_(NormalizeSpec(spec)),
      origin_(origin),
      horizon_(horizon) {}

void SloTenantState::Record(Tick at, Tick latency, bool ok) {
  if (at < origin_ || at >= horizon_) {
    ++ignored_;
    return;
  }
  const auto idx = static_cast<size_t>((at - origin_) / spec_.window);
  if (idx >= total_per_window_.size()) {
    total_per_window_.resize(idx + 1, 0);
    bad_per_window_.resize(idx + 1, 0);
  }
  ++total_per_window_[idx];
  all_latencies_.Record(latency);
  const bool good = ok && latency <= spec_.threshold;
  if (good) {
    ++good_;
    return;
  }
  ++bad_;
  ++bad_per_window_[idx];
}

// --- SloTracker ------------------------------------------------------------

SloTracker::SloTracker(std::vector<SloSpec> specs, Tick origin, Tick horizon)
    : specs_(std::move(specs)), origin_(origin), horizon_(horizon) {}

const SloSpec* SloTracker::MatchSpec(const std::string& name,
                                     const std::string& group) const {
  for (const SloSpec& spec : specs_) {
    if (spec.selector == name) {
      return &spec;
    }
  }
  for (const SloSpec& spec : specs_) {
    if (spec.selector == group) {
      return &spec;
    }
  }
  return nullptr;
}

SloTenantState* SloTracker::AddTenant(const std::string& name,
                                      const std::string& group,
                                      uint64_t tenant_id) {
  const SloSpec* spec = MatchSpec(name, group);
  if (spec == nullptr) {
    return nullptr;
  }
  states_.push_back(std::make_unique<SloTenantState>(name, tenant_id, *spec,
                                                     origin_, horizon_));
  return states_.back().get();
}

SloReport SloTracker::Finalize() const {
  SloReport report;
  for (const auto& state : states_) {
    SloTenantReport r;
    r.tenant = state->tenant_;
    r.tenant_id = state->tenant_id_;
    r.spec = state->spec_;
    r.good = state->good_;
    r.bad = state->bad_;
    r.ignored = state->ignored_;
    const double budget = BudgetFraction(r.spec);
    const uint64_t total = r.total();
    r.conformance_pct =
        total == 0 ? 100.0
                   : 100.0 * static_cast<double>(r.good) /
                         static_cast<double>(total);
    r.met = r.conformance_pct >= r.spec.target_percentile;
    r.budget_burned =
        total == 0 ? 0.0
                   : static_cast<double>(r.bad) /
                         (budget * static_cast<double>(total));
    r.achieved_ns = state->all_latencies_.Percentile(r.spec.target_percentile);

    // Window math: the fast burn rate is per window, the slow rate the same
    // ratio over the trailing slow_windows windows (prefix sums keep this
    // O(windows)).
    const size_t n = state->total_per_window_.size();
    std::vector<uint64_t> total_prefix(n + 1, 0);
    std::vector<uint64_t> bad_prefix(n + 1, 0);
    for (size_t i = 0; i < n; ++i) {
      total_prefix[i + 1] = total_prefix[i] + state->total_per_window_[i];
      bad_prefix[i + 1] = bad_prefix[i] + state->bad_per_window_[i];
    }
    r.windows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      SloWindow w;
      w.start = state->origin_ + static_cast<Tick>(i) * r.spec.window;
      const uint64_t wtotal = total_prefix[i + 1] - total_prefix[i];
      w.bad = bad_prefix[i + 1] - bad_prefix[i];
      w.good = wtotal - w.bad;
      w.fast_burn =
          wtotal == 0 ? 0.0
                      : (static_cast<double>(w.bad) /
                         static_cast<double>(wtotal)) /
                            budget;
      const size_t lo = i + 1 >= static_cast<size_t>(r.spec.slow_windows)
                            ? i + 1 - static_cast<size_t>(r.spec.slow_windows)
                            : 0;
      const uint64_t slow_total = total_prefix[i + 1] - total_prefix[lo];
      const uint64_t slow_bad = bad_prefix[i + 1] - bad_prefix[lo];
      w.slow_burn =
          slow_total == 0 ? 0.0
                          : (static_cast<double>(slow_bad) /
                             static_cast<double>(slow_total)) /
                                budget;
      w.violating = wtotal > 0 && w.fast_burn >= r.spec.burn_alert;
      r.max_slow_burn = std::max(r.max_slow_burn, w.slow_burn);
      r.windows.push_back(w);
    }

    // Episodes: maximal runs of consecutive violating windows.
    for (size_t i = 0; i < r.windows.size();) {
      if (!r.windows[i].violating) {
        ++i;
        continue;
      }
      SloEpisode ep;
      ep.begin = r.windows[i].start;
      ep.mechanism = "unattributed";
      while (i < r.windows.size() && r.windows[i].violating) {
        ep.end = std::min<Tick>(r.windows[i].start + r.spec.window, horizon_);
        ep.bad += r.windows[i].bad;
        ep.total += r.windows[i].good + r.windows[i].bad;
        ep.peak_burn = std::max(ep.peak_burn, r.windows[i].fast_burn);
        ++i;
      }
      r.episodes.push_back(ep);
    }

    report.tenants.emplace(r.tenant, std::move(r));
  }
  return report;
}

// --- SloReport -------------------------------------------------------------

const SloEpisode* SloTenantReport::WorstEpisode() const {
  const SloEpisode* worst = nullptr;
  for (const SloEpisode& ep : episodes) {
    if (worst == nullptr) {
      worst = &ep;
      continue;
    }
    if (ep.duration() != worst->duration()) {
      if (ep.duration() > worst->duration()) {
        worst = &ep;
      }
      continue;
    }
    if (ep.blame_ns != worst->blame_ns) {
      if (ep.blame_ns > worst->blame_ns) {
        worst = &ep;
      }
      continue;
    }
    if (ep.begin < worst->begin) {
      worst = &ep;
    }
  }
  return worst;
}

const SloTenantReport* SloReport::Find(const std::string& tenant) const {
  auto it = tenants.find(tenant);
  return it == tenants.end() ? nullptr : &it->second;
}

double SloReport::AggregateConformancePct() const {
  uint64_t good = 0;
  uint64_t total = 0;
  for (const auto& [name, r] : tenants) {
    good += r.good;
    total += r.total();
  }
  return total == 0 ? 100.0
                    : 100.0 * static_cast<double>(good) /
                          static_cast<double>(total);
}

double SloReport::MaxBudgetBurned() const {
  double worst = 0.0;
  for (const auto& [name, r] : tenants) {
    worst = std::max(worst, r.budget_burned);
  }
  return worst;
}

uint64_t SloReport::TotalEpisodes() const {
  uint64_t n = 0;
  for (const auto& [name, r] : tenants) {
    n += r.episodes.size();
  }
  return n;
}

namespace {

void AppendEpisodeJson(JsonWriter& w, const SloEpisode& ep) {
  w.BeginObject();
  w.Key("begin_ns").Int(ep.begin);
  w.Key("end_ns").Int(ep.end);
  w.Key("bad").UInt(ep.bad);
  w.Key("total").UInt(ep.total);
  w.Key("peak_burn").Double(ep.peak_burn);
  w.Key("blame").String(ep.blame);
  w.Key("mechanism").String(ep.mechanism);
  w.Key("blame_ns").Int(ep.blame_ns);
  w.EndObject();
}

}  // namespace

void SloReport::AppendJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("tenants").BeginObject();
  for (const auto& [name, r] : tenants) {
    w.Key(name).BeginObject();
    w.Key("target_percentile").Double(r.spec.target_percentile);
    w.Key("threshold_ns").Int(r.spec.threshold);
    w.Key("window_ns").Int(r.spec.window);
    w.Key("slow_windows").Int(r.spec.slow_windows);
    w.Key("burn_alert").Double(r.spec.burn_alert);
    w.Key("good").UInt(r.good);
    w.Key("bad").UInt(r.bad);
    w.Key("ignored").UInt(r.ignored);
    w.Key("conformance_pct").Double(r.conformance_pct);
    w.Key("met").Bool(r.met);
    w.Key("budget_burned").Double(r.budget_burned);
    w.Key("achieved_ns").Int(r.achieved_ns);
    w.Key("max_slow_burn").Double(r.max_slow_burn);
    uint64_t violating = 0;
    for (const SloWindow& win : r.windows) {
      violating += win.violating ? 1 : 0;
    }
    w.Key("violating_windows").UInt(violating);
    w.Key("windows").BeginArray();
    for (const SloWindow& win : r.windows) {
      w.BeginObject();
      w.Key("start_ns").Int(win.start);
      w.Key("good").UInt(win.good);
      w.Key("bad").UInt(win.bad);
      w.Key("fast_burn").Double(win.fast_burn);
      w.Key("slow_burn").Double(win.slow_burn);
      w.Key("violating").Bool(win.violating);
      w.EndObject();
    }
    w.EndArray();
    w.Key("episodes").BeginArray();
    for (const SloEpisode& ep : r.episodes) {
      AppendEpisodeJson(w, ep);
    }
    w.EndArray();
    if (const SloEpisode* worst = r.WorstEpisode()) {
      w.Key("worst_episode");
      AppendEpisodeJson(w, *worst);
    }
    w.Key("attribution").BeginArray();
    for (const SloBlameRow& row : r.attribution) {
      w.BeginObject();
      w.Key("key").String(row.key);
      w.Key("blocking_events").UInt(row.blocking_events);
      w.Key("head_block_ns").Int(row.head_block_ns);
      w.Key("fetch_slot_ns").Int(row.fetch_slot_ns);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  w.Key("aggregate").BeginObject();
  w.Key("conformance_pct").Double(AggregateConformancePct());
  w.Key("max_budget_burned").Double(MaxBudgetBurned());
  w.Key("episodes").UInt(TotalEpisodes());
  w.EndObject();
  w.EndObject();
}

std::string SloReport::ToTable() const {
  TablePrinter table({"tenant", "objective", "conformance", "met",
                      "budget burn", "episodes", "worst episode",
                      "dominant blocker"});
  for (const auto& [name, r] : tenants) {
    char objective[64];
    std::snprintf(objective, sizeof(objective), "p%.5g < %s",
                  r.spec.target_percentile,
                  FormatUs(static_cast<double>(r.spec.threshold)).c_str());
    const SloEpisode* worst = r.WorstEpisode();
    std::string worst_cell = "-";
    std::string blame_cell = "-";
    if (worst != nullptr) {
      worst_cell = FormatUs(static_cast<double>(worst->duration())) + " @ " +
                   FormatMs(static_cast<double>(worst->begin));
      if (!worst->blame.empty()) {
        blame_cell = worst->blame + " (" + worst->mechanism + ")";
      } else {
        blame_cell = worst->mechanism;
      }
    }
    table.AddRow({r.tenant, objective,
                  FormatPercent(r.conformance_pct / 100.0),
                  r.met ? "yes" : "NO",
                  FormatPercent(r.budget_burned),
                  std::to_string(r.episodes.size()), worst_cell, blame_cell});
  }
  return table.Render();
}

// --- Episode attribution ---------------------------------------------------

void AttributeSloEpisodes(SloReport& report, const HolbAnalyzer& holb) {
  if (report.empty() || holb.empty()) {
    return;
  }
  for (auto& [name, r] : report.tenants) {
    if (r.tenant_id == 0 || r.episodes.empty()) {
      continue;
    }
    std::map<std::string, SloBlameRow> merged;
    for (SloEpisode& ep : r.episodes) {
      const HolbReport hr = holb.TenantWindow(r.tenant_id, ep.begin, ep.end);
      // Dominant blocker: the top-ranked tenant other than the victim
      // itself (queueing behind your own requests is not interference).
      const HolbRow* top = nullptr;
      for (const HolbRow& row : hr.by_tenant) {
        if (row.key == r.tenant) {
          continue;
        }
        top = &row;
        break;
      }
      if (top != nullptr) {
        ep.blame = top->key;
        ep.mechanism = top->head_block_ns >= top->fetch_slot_ns
                           ? "same-queue-head"
                           : "fetch-slot";
        ep.blame_ns = top->total_ns();
      }
      for (const HolbRow& row : hr.by_tenant) {
        if (row.key == r.tenant) {
          continue;
        }
        SloBlameRow& agg = merged[row.key];
        agg.key = row.key;
        agg.blocking_events += row.blocking_events;
        agg.head_block_ns += row.head_block_ns;
        agg.fetch_slot_ns += row.fetch_slot_ns;
      }
    }
    r.attribution.clear();
    r.attribution.reserve(merged.size());
    for (auto& [key, row] : merged) {
      r.attribution.push_back(row);
    }
    std::sort(r.attribution.begin(), r.attribution.end(),
              [](const SloBlameRow& a, const SloBlameRow& b) {
                if (a.total_ns() != b.total_ns()) {
                  return a.total_ns() > b.total_ns();
                }
                return a.key < b.key;
              });
  }
}

}  // namespace daredevil
