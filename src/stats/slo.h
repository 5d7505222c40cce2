// Per-tenant SLO engine: windowed burn-rate tracking and violation episodes.
//
// The paper's claim is not "Daredevil is fast" but "a latency tenant keeps
// meeting its objective while bulk tenants hammer the device". That claim
// needs a first-class notion of the objective itself: an SloSpec names a
// target ("99% of requests under 500us, evaluated over 5ms windows") and an
// SloTracker consumes the per-request delivery timestamps to answer, per
// tenant,
//
//   * windowed good/bad-request counts (a delivery is *good* iff it completed
//     with IoStatus::kOk and its end-to-end latency is <= the threshold),
//   * cumulative error-budget burn (budget = the fraction of requests the
//     target percentile allows to be bad; burn = bad / (budget * total)),
//   * SRE-style multi-window burn rates: a *fast* rate over each single
//     window and a *slow* rate over the trailing N windows, and
//   * discrete violation episodes: maximal runs of consecutive windows whose
//     fast burn rate reaches the alert threshold.
//
// Episodes are cross-linked with the HOL-blocking attribution (holb.h): each
// episode queries the run's interval index for the tenant's requests that
// completed inside the episode, so a violation carries its dominant blocker
// ("T3 via same-queue-head") instead of just a timestamp range. The Perfetto
// exporter renders episodes as slices on a per-tenant SLO track.
//
// Determinism: the tracker is fed from the delivery path but only accumulates
// counts - it never schedules events or draws randomness - and the report is
// serialized outside the fingerprinted projection of ScenarioResult::ToJson,
// so a run with SLO tracking enabled fingerprints byte-identically to one
// without (see DeterminismGate.SloTrackingDoesNotPerturbFingerprints).
#ifndef DAREDEVIL_SRC_STATS_SLO_H_
#define DAREDEVIL_SRC_STATS_SLO_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/clock.h"
#include "src/stats/histogram.h"

namespace daredevil {

class HolbAnalyzer;  // src/stats/holb.h
class JsonWriter;    // src/stats/metrics.h

// A latency objective for one tenant or one tenant group.
struct SloSpec {
  // Matches a tenant by exact job name ("L0") or, failing that, by group
  // ("L"). Exact-name specs win over group specs; each matched tenant gets
  // its own independent tracking state.
  std::string selector = "L";
  // Target percentile of requests that must meet the threshold. The error
  // budget is the complement: p99 allows 1% of requests to be bad. Clamped
  // to [0, 99.999] so the budget never collapses to zero.
  double target_percentile = 99.0;
  // The latency objective (end-to-end, issue -> delivery).
  Tick threshold = 500 * kMicrosecond;
  // Evaluation window width for the fast burn rate.
  Tick window = 5 * kMillisecond;
  // Trailing windows aggregated into the slow burn rate (>= 1).
  int slow_windows = 6;
  // A window is in violation when its fast burn rate reaches this multiple
  // of the error budget (1.0 = the window spent budget exactly as fast as
  // the objective allows).
  double burn_alert = 1.0;
};

// One evaluation window of one tenant, with both burn rates evaluated at it.
struct SloWindow {
  Tick start = 0;
  uint64_t good = 0;
  uint64_t bad = 0;
  double fast_burn = 0.0;  // (bad/total)/budget over this window
  double slow_burn = 0.0;  // same over the trailing slow_windows windows
  bool violating = false;  // total > 0 && fast_burn >= burn_alert
};

// A blocker row aggregated from the HOL attribution of violation episodes.
struct SloBlameRow {
  std::string key;  // blocker tenant display name
  uint64_t blocking_events = 0;
  Tick head_block_ns = 0;
  Tick fetch_slot_ns = 0;
  Tick total_ns() const { return head_block_ns + fetch_slot_ns; }
};

// A maximal run of consecutive violating windows.
struct SloEpisode {
  Tick begin = 0;  // start of the first violating window
  Tick end = 0;    // end of the last violating window (clamped to horizon)
  uint64_t bad = 0;
  uint64_t total = 0;
  double peak_burn = 0.0;  // max fast burn rate across the episode
  // Dominant blocker, filled by AttributeSloEpisodes (empty = unattributed):
  // the tenant whose head/fetch intervals overlap this episode's victim
  // waits the most, and the mechanism it dominated through.
  std::string blame;
  std::string mechanism;  // "same-queue-head" | "fetch-slot" | "unattributed"
  Tick blame_ns = 0;      // blocking nanoseconds charged to `blame`

  Tick duration() const { return end - begin; }
};

// The finalized per-tenant verdict.
struct SloTenantReport {
  std::string tenant;
  uint64_t tenant_id = 0;
  SloSpec spec;
  uint64_t good = 0;
  uint64_t bad = 0;
  uint64_t ignored = 0;  // deliveries outside [origin, horizon)
  double conformance_pct = 100.0;  // 100 * good / (good + bad)
  bool met = true;                 // conformance_pct >= target_percentile
  // Fraction of the whole-run error budget consumed (1.0 = exhausted; can
  // exceed 1 when the tenant blows through it).
  double budget_burned = 0.0;
  int64_t achieved_ns = 0;  // measured latency at the target percentile
  double max_slow_burn = 0.0;
  std::vector<SloWindow> windows;
  std::vector<SloEpisode> episodes;
  // Blocker ranking aggregated over all attributed episodes, descending.
  std::vector<SloBlameRow> attribution;

  uint64_t total() const { return good + bad; }
  // Worst episode: longest duration, ties broken by the most attributed
  // blocking time (an episode with an identified culprit is more actionable
  // than an equally long unattributed one), then by earliest begin. Null
  // when the tenant never violated.
  const SloEpisode* WorstEpisode() const;
};

struct SloReport {
  // Sorted by tenant name (std::map keeps JSON order-stable).
  std::map<std::string, SloTenantReport> tenants;

  bool empty() const { return tenants.empty(); }
  const SloTenantReport* Find(const std::string& tenant) const;
  // Union conformance over every tracked tenant (100 when none).
  double AggregateConformancePct() const;
  // Worst per-tenant budget burn (0 when none).
  double MaxBudgetBurned() const;
  uint64_t TotalEpisodes() const;

  void AppendJson(JsonWriter& w) const;
  // Human-readable conformance table for bench output.
  std::string ToTable() const;
};

// Per-tenant accumulation state. Owned by SloTracker; the workload layer
// holds a raw pointer and feeds it one call per delivered request.
class SloTenantState {
 public:
  SloTenantState(std::string tenant, uint64_t tenant_id, const SloSpec& spec,
                 Tick origin, Tick horizon);

  // Records one delivery: `at` is the completion timestamp, `latency` the
  // end-to-end latency, `ok` whether the completion status was IoStatus::kOk.
  // Deliveries outside [origin, horizon) are counted but not windowed.
  void Record(Tick at, Tick latency, bool ok);

  const std::string& tenant() const { return tenant_; }
  const SloSpec& spec() const { return spec_; }

 private:
  friend class SloTracker;

  std::string tenant_;
  uint64_t tenant_id_;
  SloSpec spec_;
  Tick origin_;
  Tick horizon_;
  // Deliveries and bad deliveries per window; window i starts at
  // origin_ + i * spec_.window. Both grow together.
  std::vector<uint64_t> total_per_window_;
  std::vector<uint64_t> bad_per_window_;
  Histogram all_latencies_;
  uint64_t good_ = 0;
  uint64_t bad_ = 0;
  uint64_t ignored_ = 0;
};

// The engine: owns one SloTenantState per matched tenant and derives the
// windowed burn rates, episodes and verdicts at finalize time.
class SloTracker {
 public:
  // `origin`/`horizon` bound the evaluated range (the scenario's measurement
  // window); windows are anchored at `origin`.
  SloTracker(std::vector<SloSpec> specs, Tick origin, Tick horizon);
  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  // No specs configured: tracking is disabled and AddTenant always declines.
  bool empty() const { return specs_.empty(); }

  // Registers a tenant if some spec selects it (exact name match wins over
  // group match). Returns the tenant's state - stable for the tracker's
  // lifetime - or nullptr when no spec applies.
  SloTenantState* AddTenant(const std::string& name, const std::string& group,
                            uint64_t tenant_id);

  // Closes the windows and derives burn rates, episodes and verdicts.
  // Attribution fields stay empty until AttributeSloEpisodes.
  SloReport Finalize() const;

 private:
  const SloSpec* MatchSpec(const std::string& name,
                           const std::string& group) const;

  std::vector<SloSpec> specs_;
  Tick origin_;
  Tick horizon_;
  // Node-stable: the workload layer keeps raw pointers across the run.
  std::vector<std::unique_ptr<SloTenantState>> states_;
};

// Cross-links violation episodes with the HOL-blocking attribution: for each
// episode, attributes the waits of the tenant's requests completing inside
// it (HolbAnalyzer::TenantWindow), then fills blame/mechanism/blame_ns and the
// per-tenant attribution ranking: each episode's rows, ranked and cut to
// the analyzer's top_n, summed. Row keys are the analyzer's tenant names.
// Pure post-processing over captured records; deterministic.
void AttributeSloEpisodes(SloReport& report, const HolbAnalyzer& holb);

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_STATS_SLO_H_
