// Head-of-line blocking attribution (the quantitative half of §3.1).
//
// For every latency-sensitive victim request, its NSQ wait
// [nsq_enqueue, fetch_start] is attributed to the concrete requests that
// delayed it:
//
//   * head blocking - requests of the same NSQ that occupied the queue head
//     (their head-occupancy interval, see trace_export.h) while the victim
//     was waiting behind them;
//   * fetch-slot blocking - the controller's fetch/decompose engine is
//     serialized across NSQs, so once the victim reaches its own NSQ head it
//     can still wait for other queues' commands to clear the engine;
//   * residual - whatever remains (doorbell batching before the command is
//     visible, capacity stalls, ...).
//
// Rankings by tenant and by size class show *who* blocks L-requests - on
// blk-mq the bulk 128KB commands dominate; on Daredevil's split NSQ groups
// they cannot, because they never share a queue with the victims.
//
// The intervals have one derivation (BlockingIntervals). One index, built
// once per record set, answers the full-run report and every SLO episode
// (slo.h) and draws the trace exporter's NSQ / fetch-engine tracks
// (TraceExportInput::intervals; the exporter builds its own only when the
// caller passes none).
#ifndef DAREDEVIL_SRC_STATS_HOLB_H_
#define DAREDEVIL_SRC_STATS_HOLB_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/clock.h"
#include "src/stats/trace_export.h"

namespace daredevil {

class JsonWriter;  // src/stats/metrics.h

// The head-occupancy and fetch-engine intervals of one record set.
//
//   * Head occupancy: within one NSQ the controller fetches FIFO, so the
//     request at the head occupies it from max(its visibility, the previous
//     head's departure) until its own fetch start. Per NSQ these intervals
//     are disjoint by construction - the HOL-blocking picture.
//   * Fetch engine: serialized in the controller across NSQs, so the
//     [fetch_start, fetch) intervals are disjoint run-wide.
//
// Both are ordered by (fetch_start, request id). Intervals name their
// request by its position in the record vector the index was built from;
// every query takes that vector (moving it keeps the positions valid).
class BlockingIntervals {
 public:
  struct Interval {
    Tick begin = 0;
    Tick end = 0;
    uint32_t record = 0;  // position in the record vector
  };
  // One NSQ's head intervals: heads()[first, first + count).
  struct NsqHeads {
    int nsq = 0;
    uint32_t first = 0;
    uint32_t count = 0;
  };

  explicit BlockingIntervals(const std::vector<RequestRecord>& records);

  size_t size() const { return head_start_.size(); }
  // The NSQs that carry records, ascending.
  const std::vector<NsqHeads>& nsqs() const { return nsqs_; }
  const std::vector<Interval>& heads() const { return heads_; }
  const std::vector<Interval>& fetches() const { return fetches_; }
  // The head range of the NSQ record `i` was queued on.
  const NsqHeads& NsqOf(size_t i) const { return nsqs_[nsq_slot_[i]]; }
  // When record `i` reached its NSQ head.
  Tick head_start(size_t i) const { return head_start_[i]; }

 private:
  std::vector<NsqHeads> nsqs_;
  std::vector<Interval> heads_;
  std::vector<Interval> fetches_;
  std::vector<uint32_t> nsq_slot_;  // record -> nsqs_ index
  std::vector<Tick> head_start_;    // record -> head interval begin
};

struct HolbOptions {
  // Attribute blocking only for latency-sensitive victims (the paper's
  // L-apps). When false every request is a victim.
  bool victims_latency_sensitive_only = true;
  // Blockers with >= this many pages count as "bulk" in the size-class
  // rollup (128KB = 32 pages by default).
  uint32_t bulk_threshold_pages = 32;
  // Rows kept in the ranked blocker tables.
  size_t top_n = 10;
  // Optional tenant display names ("L0", "T1", ...); ids otherwise.
  std::map<uint64_t, std::string> tenant_names;
};

// One row of a blocker ranking (key = tenant name or size class).
struct HolbRow {
  std::string key;
  uint64_t blocking_events = 0;  // victim/blocker pairs with overlap > 0
  Tick head_block_ns = 0;        // same-NSQ head-occupancy overlap
  Tick fetch_slot_ns = 0;        // cross-NSQ fetch-engine overlap
  Tick total_ns() const { return head_block_ns + fetch_slot_ns; }
};

struct HolbReport {
  uint64_t victims = 0;            // requests whose wait was attributed
  Tick total_wait_ns = 0;          // sum of victim [nsq_enqueue, fetch_start]
  Tick attributed_head_ns = 0;     // portion blamed on same-NSQ heads
  Tick attributed_fetch_ns = 0;    // portion blamed on the fetch engine
  Tick residual_ns = 0;            // unattributed remainder
  std::vector<HolbRow> by_tenant;  // descending by total_ns
  std::vector<HolbRow> by_size;    // "bulk(>=Np)" / "small(<Np)"

  bool empty() const { return victims == 0; }
  // Head-blocking nanoseconds charged to bulk-sized blockers; the fig02
  // acceptance check compares this share across stacks.
  Tick BulkHeadBlockNs() const;
  Tick SmallHeadBlockNs() const;

  void AppendJson(JsonWriter& w) const;
  // Human-readable ranking table for bench output.
  std::string ToTable() const;
};

// Attribution queries over one record set and its interval index. Blocker
// keys are computed once per record and victims are indexed by (tenant,
// completion time), so a tenant-window query visits only its own victims.
// Holds references: `records` and `intervals` must outlive the analyzer.
class HolbAnalyzer {
 public:
  HolbAnalyzer(const std::vector<RequestRecord>& records,
               const BlockingIntervals& intervals, const HolbOptions& opts);

  bool empty() const { return records_.empty(); }
  // The pass over every record: each latency-sensitive request is a victim
  // (each request, with victims_latency_sensitive_only off).
  HolbReport Report() const;
  // The pass whose victims are tenant `tenant_id`'s requests (of any latency
  // class) completing in [begin, end); a negative `end` means unbounded.
  // Blockers still come from every record, but the pass costs only the
  // window's own victims (the SLO episode cross-link, slo.h).
  HolbReport TenantWindow(uint64_t tenant_id, Tick begin, Tick end) const;

 private:
  struct Tally {
    uint64_t blocking_events = 0;
    Tick head_block_ns = 0;
    Tick fetch_slot_ns = 0;
  };
  // Row accumulators of one pass, indexed like tenant_keys_ / size_keys_.
  struct Pass {
    HolbReport report;
    std::vector<Tally> by_tenant;
    std::vector<Tally> by_size;
  };

  Pass StartPass() const;
  // Charges the overlap of [begin, end) with each of v[0, n) but `self`'s
  // to the blockers' rows under `mechanism`; returns the sum.
  Tick ChargeOverlaps(const BlockingIntervals::Interval* v, size_t n,
                      Tick begin, Tick end, size_t self,
                      Tick Tally::*mechanism, Pass& pass) const;
  void ChargeVictim(size_t v, Pass& pass) const;
  HolbReport FinishPass(Pass& pass) const;

  const std::vector<RequestRecord>& records_;
  const BlockingIntervals& intervals_;
  HolbOptions opts_;
  std::vector<std::string> tenant_keys_;  // distinct tenant row keys
  std::vector<std::string> size_keys_;    // small, bulk
  std::vector<uint32_t> tenant_key_of_;   // record -> tenant_keys_ index
  std::vector<uint32_t> size_key_of_;     // record -> size_keys_ index
  // Record positions by (tenant, complete, position).
  std::vector<uint32_t> by_tenant_completion_;
};

// Runs the attribution pass over completed-request records. Pure function of
// the records: deterministic, no simulation access.
HolbReport AnalyzeHolBlocking(const std::vector<RequestRecord>& records,
                              const HolbOptions& opts = HolbOptions());

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_STATS_HOLB_H_
