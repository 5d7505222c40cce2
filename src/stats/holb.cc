#include "src/stats/holb.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "src/core/invariant.h"
#include "src/stats/metrics.h"
#include "src/stats/table.h"

namespace daredevil {

namespace {

Tick Overlap(Tick a_begin, Tick a_end, Tick b_begin, Tick b_end) {
  const Tick begin = a_begin > b_begin ? a_begin : b_begin;
  const Tick end = a_end < b_end ? a_end : b_end;
  return end > begin ? end - begin : 0;
}

std::string TenantKey(const HolbOptions& opts, uint64_t tenant_id) {
  auto it = opts.tenant_names.find(tenant_id);
  if (it != opts.tenant_names.end()) {
    return it->second;
  }
  return "tenant" + std::to_string(tenant_id);
}

using Interval = BlockingIntervals::Interval;

// First interval whose end is past `at` (intervals are disjoint + sorted).
size_t LowerBoundByEnd(const Interval* v, size_t n, Tick at) {
  size_t lo = 0;
  size_t hi = n;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (v[mid].end <= at) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

// --- BlockingIntervals -------------------------------------------------------

BlockingIntervals::BlockingIntervals(const std::vector<RequestRecord>& records)
    : nsq_slot_(records.size()), head_start_(records.size()) {
  DD_CHECK(records.size() <= UINT32_MAX) << "record positions must fit 32 bits";
  const auto n = static_cast<uint32_t>(records.size());
  // FIFO fetch order: (fetch_start, id), position as the last tie-break.
  auto fetch_order = [&records](uint32_t a, uint32_t b) {
    const RequestRecord& ra = records[a];
    const RequestRecord& rb = records[b];
    if (ra.t.fetch_start != rb.t.fetch_start) {
      return ra.t.fetch_start < rb.t.fetch_start;
    }
    if (ra.id != rb.id) {
      return ra.id < rb.id;
    }
    return a < b;
  };
  std::vector<uint32_t> order(n);
  for (uint32_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), fetch_order);
  fetches_.reserve(n);
  for (uint32_t i : order) {
    fetches_.push_back({records[i].t.fetch_start, records[i].t.fetch, i});
  }

  // Heads: the same order, grouped by NSQ (a stable pass keeps it per NSQ).
  std::stable_sort(order.begin(), order.end(),
                   [&records](uint32_t a, uint32_t b) {
                     return records[a].nsq < records[b].nsq;
                   });
  heads_.reserve(n);
  for (uint32_t i : order) {
    const RequestRecord& r = records[i];
    if (nsqs_.empty() || nsqs_.back().nsq != r.nsq) {
      nsqs_.push_back({r.nsq, static_cast<uint32_t>(heads_.size()), 0});
    }
    const Tick prev_departure = nsqs_.back().count > 0 ? heads_.back().end : 0;
    const Tick visible = r.t.doorbell > 0 ? r.t.doorbell : r.t.nsq_enqueue;
    const Tick head_start = std::max(visible, prev_departure);
    heads_.push_back({head_start, r.t.fetch_start, i});
    ++nsqs_.back().count;
    nsq_slot_[i] = static_cast<uint32_t>(nsqs_.size() - 1);
    head_start_[i] = head_start;
  }
}

// --- HolbAnalyzer ------------------------------------------------------------

HolbAnalyzer::HolbAnalyzer(const std::vector<RequestRecord>& records,
                           const BlockingIntervals& intervals,
                           const HolbOptions& opts)
    : records_(records),
      intervals_(intervals),
      opts_(opts),
      tenant_key_of_(records.size()),
      size_key_of_(records.size()) {
  DD_CHECK(intervals.size() == records.size())
      << "interval index built from a different record set";
  const std::string threshold = std::to_string(opts_.bulk_threshold_pages);
  size_keys_ = {"small(<" + threshold + "p)", "bulk(>=" + threshold + "p)"};
  // Tenants sharing a display name share a row, as string-keyed rows would.
  std::map<uint64_t, uint32_t> key_of_tenant;
  std::map<std::string, uint32_t> key_of_name;
  for (size_t i = 0; i < records.size(); ++i) {
    const RequestRecord& r = records[i];
    auto it = key_of_tenant.find(r.tenant_id);
    if (it == key_of_tenant.end()) {
      std::string key = TenantKey(opts_, r.tenant_id);
      auto [name_it, added] = key_of_name.emplace(
          key, static_cast<uint32_t>(tenant_keys_.size()));
      if (added) {
        tenant_keys_.push_back(std::move(key));
      }
      it = key_of_tenant.emplace(r.tenant_id, name_it->second).first;
    }
    tenant_key_of_[i] = it->second;
    size_key_of_[i] = r.pages >= opts_.bulk_threshold_pages ? 1 : 0;
  }

  by_tenant_completion_.resize(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    by_tenant_completion_[i] = static_cast<uint32_t>(i);
  }
  std::sort(by_tenant_completion_.begin(), by_tenant_completion_.end(),
            [&records](uint32_t a, uint32_t b) {
              const RequestRecord& ra = records[a];
              const RequestRecord& rb = records[b];
              if (ra.tenant_id != rb.tenant_id) {
                return ra.tenant_id < rb.tenant_id;
              }
              if (ra.t.complete != rb.t.complete) {
                return ra.t.complete < rb.t.complete;
              }
              return a < b;
            });
}

HolbAnalyzer::Pass HolbAnalyzer::StartPass() const {
  Pass pass;
  pass.by_tenant.resize(tenant_keys_.size());
  pass.by_size.resize(size_keys_.size());
  return pass;
}

Tick HolbAnalyzer::ChargeOverlaps(const Interval* v, size_t n, Tick begin,
                                  Tick end, size_t self,
                                  Tick Tally::*mechanism, Pass& pass) const {
  Tick sum = 0;
  for (size_t i = LowerBoundByEnd(v, n, begin); i < n; ++i) {
    const Interval& iv = v[i];
    if (iv.begin >= end) {
      break;
    }
    if (iv.record == self) {
      continue;
    }
    const Tick ns = Overlap(begin, end, iv.begin, iv.end);
    if (ns <= 0) {
      continue;
    }
    sum += ns;
    for (Tally* t : {&pass.by_tenant[tenant_key_of_[iv.record]],
                     &pass.by_size[size_key_of_[iv.record]]}) {
      ++t->blocking_events;
      t->*mechanism += ns;
    }
  }
  return sum;
}

void HolbAnalyzer::ChargeVictim(size_t v, Pass& pass) const {
  const RequestRecord& victim = records_[v];
  // The victim's wait is its NSQ-wait stage.
  const StageSpan& wait = kStageSpans[static_cast<int>(Stage::kNsqWait)];
  const Tick wait_begin = victim.t.*wait.begin;
  const Tick wait_end = victim.t.*wait.end;
  ++pass.report.victims;
  if (wait_end <= wait_begin) {
    return;
  }
  pass.report.total_wait_ns += wait_end - wait_begin;

  // Same-NSQ head blocking: other requests occupying the head while the
  // victim waited. Head intervals are disjoint within an NSQ, so overlaps
  // never double-count.
  const BlockingIntervals::NsqHeads& nsq = intervals_.NsqOf(v);
  pass.report.attributed_head_ns +=
      ChargeOverlaps(intervals_.heads().data() + nsq.first, nsq.count,
                     wait_begin, wait_end, v, &Tally::head_block_ns, pass);

  // Fetch-slot blocking: once at its own head, the victim waits for the
  // serialized fetch engine to clear other queues' commands. Fetch
  // intervals are globally disjoint (one engine), so again no
  // double-counting, and the head/fetch windows partition the wait.
  const Tick head_begin = intervals_.head_start(v);
  if (head_begin < wait_end) {
    const std::vector<Interval>& fetches = intervals_.fetches();
    pass.report.attributed_fetch_ns +=
        ChargeOverlaps(fetches.data(), fetches.size(), head_begin, wait_end, v,
                       &Tally::fetch_slot_ns, pass);
  }
}

HolbReport HolbAnalyzer::FinishPass(Pass& pass) const {
  auto rank = [this](const std::vector<Tally>& tallies,
                     const std::vector<std::string>& keys) {
    std::vector<HolbRow> rows;
    for (size_t k = 0; k < tallies.size(); ++k) {
      if (tallies[k].blocking_events == 0) {
        continue;  // never charged: no row
      }
      rows.push_back({keys[k], tallies[k].blocking_events,
                      tallies[k].head_block_ns, tallies[k].fetch_slot_ns});
    }
    std::sort(rows.begin(), rows.end(), [](const HolbRow& a, const HolbRow& b) {
      if (a.total_ns() != b.total_ns()) {
        return a.total_ns() > b.total_ns();
      }
      return a.key < b.key;
    });
    if (rows.size() > opts_.top_n) {
      rows.resize(opts_.top_n);
    }
    return rows;
  };
  HolbReport& report = pass.report;
  const Tick attributed = report.attributed_head_ns + report.attributed_fetch_ns;
  report.residual_ns =
      report.total_wait_ns > attributed ? report.total_wait_ns - attributed : 0;
  report.by_tenant = rank(pass.by_tenant, tenant_keys_);
  report.by_size = rank(pass.by_size, size_keys_);
  return std::move(report);
}

HolbReport HolbAnalyzer::Report() const {
  if (records_.empty()) {
    return HolbReport();
  }
  Pass pass = StartPass();
  for (size_t v = 0; v < records_.size(); ++v) {
    const RequestRecord& victim = records_[v];
    if (opts_.victims_latency_sensitive_only && !victim.latency_sensitive) {
      continue;
    }
    ChargeVictim(v, pass);
  }
  return FinishPass(pass);
}

HolbReport HolbAnalyzer::TenantWindow(uint64_t tenant_id, Tick begin,
                                      Tick end) const {
  if (records_.empty()) {
    return HolbReport();
  }
  // The window's victims are one contiguous run of by_tenant_completion_.
  const auto first = std::lower_bound(
      by_tenant_completion_.begin(), by_tenant_completion_.end(), begin,
      [this, tenant_id](uint32_t i, Tick at) {
        const RequestRecord& r = records_[i];
        return r.tenant_id != tenant_id ? r.tenant_id < tenant_id
                                        : r.t.complete < at;
      });
  Pass pass = StartPass();
  for (auto it = first; it != by_tenant_completion_.end(); ++it) {
    const RequestRecord& victim = records_[*it];
    if (victim.tenant_id != tenant_id ||
        (end >= 0 && victim.t.complete >= end)) {
      break;
    }
    ChargeVictim(*it, pass);
  }
  return FinishPass(pass);
}

Tick HolbReport::BulkHeadBlockNs() const {
  for (const HolbRow& row : by_size) {
    if (row.key.rfind("bulk", 0) == 0) {
      return row.head_block_ns;
    }
  }
  return 0;
}

Tick HolbReport::SmallHeadBlockNs() const {
  for (const HolbRow& row : by_size) {
    if (row.key.rfind("small", 0) == 0) {
      return row.head_block_ns;
    }
  }
  return 0;
}

void HolbReport::AppendJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("victims").UInt(victims);
  w.Key("total_wait_ns").Int(total_wait_ns);
  w.Key("attributed_head_ns").Int(attributed_head_ns);
  w.Key("attributed_fetch_ns").Int(attributed_fetch_ns);
  w.Key("residual_ns").Int(residual_ns);
  auto rows = [&w](const char* key, const std::vector<HolbRow>& list) {
    w.Key(key).BeginArray();
    for (const HolbRow& row : list) {
      w.BeginObject();
      w.Key("key").String(row.key);
      w.Key("blocking_events").UInt(row.blocking_events);
      w.Key("head_block_ns").Int(row.head_block_ns);
      w.Key("fetch_slot_ns").Int(row.fetch_slot_ns);
      w.EndObject();
    }
    w.EndArray();
  };
  rows("by_tenant", by_tenant);
  rows("by_size", by_size);
  w.EndObject();
}

std::string HolbReport::ToTable() const {
  std::string out;
  out += "HOL-blocking attribution: " + std::to_string(victims) +
         " victims, total NSQ wait " + FormatUs(static_cast<double>(total_wait_ns)) +
         " (head " + FormatUs(static_cast<double>(attributed_head_ns)) +
         ", fetch-slot " + FormatUs(static_cast<double>(attributed_fetch_ns)) +
         ", residual " + FormatUs(static_cast<double>(residual_ns)) + ")\n";
  auto render = [&out](const char* title, const std::vector<HolbRow>& list) {
    if (list.empty()) {
      return;
    }
    out += title;
    out += '\n';
    TablePrinter table({"blocker", "events", "head-block", "fetch-slot",
                        "total"});
    for (const HolbRow& row : list) {
      table.AddRow({row.key, FormatCount(static_cast<double>(row.blocking_events)),
                    FormatUs(static_cast<double>(row.head_block_ns)),
                    FormatUs(static_cast<double>(row.fetch_slot_ns)),
                    FormatUs(static_cast<double>(row.total_ns()))});
    }
    out += table.Render();
  };
  render("blockers by tenant:", by_tenant);
  render("blockers by size class:", by_size);
  return out;
}

HolbReport AnalyzeHolBlocking(const std::vector<RequestRecord>& records,
                              const HolbOptions& opts) {
  const BlockingIntervals intervals(records);
  return HolbAnalyzer(records, intervals, opts).Report();
}

}  // namespace daredevil
