// Figure 2: severity of the multi-tenancy issue. 4 L-tenants with T-tenants
// either co-located in the same NQs (vanilla blk-mq, "w/ Interfere") or
// statically separated into disjoint NQ halves (modified blk-mq,
// "w/o Interfere"), on 4 cores with 4 NQs.
#include <vector>

#include "bench/bench_util.h"

using namespace daredevil;

int main() {
  PrintHeader("Figure 2: L-tenant latency w/ and w/o NQ interference",
              "§3.1, Fig. 2a (p99.9) and 2b (avg)",
              "4 L-tenants + N T-tenants on 4 cores, 4 NQs; vanilla co-locates "
              "(w/ Interfere), modified blk-mq splits NQ halves (w/o Interfere)");

  BenchJsonSink json("fig02_motivation");
  const std::vector<int> pressures = {0, 2, 4, 8, 16, 32};
  TablePrinter table({"T-tenants", "variant", "L p99.9", "L avg", "tail ratio",
                      "avg ratio"});
  for (int n_t : pressures) {
    double base_tail = 0;
    double base_avg = 0;
    for (StackKind kind : {StackKind::kStaticSplit, StackKind::kVanilla}) {
      ScenarioConfig cfg = MakeSvmConfig(/*cores=*/4);
      cfg.stack = kind;
      cfg.used_nqs = 4;  // align with the 4 core-NQ bindings of vanilla
      cfg.warmup = ScaledMs(30);
      cfg.duration = ScaledMs(150);
      AddLTenants(cfg, 4);
      AddTTenants(cfg, n_t);
      const ScenarioResult r = RunScenario(cfg);
      json.Add(std::string(StackKindName(kind)) + "/nt=" + std::to_string(n_t), r);
      const auto tail = static_cast<double>(r.P999Ns("L"));
      const double avg = r.AvgLatencyNs("L");
      const bool is_base = kind == StackKind::kStaticSplit;
      if (is_base) {
        base_tail = tail;
        base_avg = avg;
      }
      table.AddRow({std::to_string(n_t),
                    is_base ? "w/o Interfere" : "w/  Interfere", FormatMs(tail),
                    FormatMs(avg),
                    is_base ? "1.00x" : FormatRatio(tail / std::max(base_tail, 1.0)),
                    is_base ? "1.00x" : FormatRatio(avg / std::max(base_avg, 1.0))});
    }
  }
  table.Print();
  std::printf(
      "\nPaper shape: interference prolongs L-tenant avg and tail latency\n"
      "(up to 3.49x / 15.7x at 32 T-tenants in the paper); the separated\n"
      "variant stays flat as T-pressure grows.\n");

  // --- HOL-blocking attribution (who delays the L-requests, and where) ----
  // Re-run the mid-pressure point with per-request timeline capture and
  // attribute every L-request's NSQ wait to the commands ahead of it. On
  // blk-mq the 128KB bulk commands sharing the L-tenants' queues dominate;
  // on Daredevil's split NQ groups they cannot (they never share a queue).
  std::printf("\n--- HOL-blocking attribution (8 T-tenants) ---\n");
  const std::string trace_path = TraceJsonPath();
  for (StackKind kind : {StackKind::kVanilla, StackKind::kDareFull}) {
    ScenarioConfig cfg = MakeSvmConfig(/*cores=*/4);
    cfg.stack = kind;
    cfg.used_nqs = 4;
    cfg.warmup = ScaledMs(30);
    cfg.duration = ScaledMs(150);
    AddLTenants(cfg, 4);
    AddTTenants(cfg, 8);
    // The same objective for both stacks turns the latency comparison into a
    // conformance verdict: who met "99% of L-requests under 5ms", and who
    // blocked whom when the objective was missed.
    AddLatencySlo(cfg, 5 * kMillisecond, ScaledMs(5));
    cfg.trace_capacity = TraceCapacityOr(1 << 20);
    cfg.sample_interval = kMillisecond;
    cfg.export_trace = !trace_path.empty();
    const ScenarioResult r = RunScenario(cfg);
    const std::string label =
        std::string(StackKindName(kind)) + "/holb/nt=8";
    json.Add(label, r);
    WarnOnTraceDrops(label, r);
    std::printf("\n[%s]\n%s", std::string(StackKindName(kind)).c_str(),
                r.holb.ToTable().c_str());
    std::printf("%s", r.slo.ToTable().c_str());
    const double head_total =
        static_cast<double>(r.holb.attributed_head_ns);
    const double bulk_share =
        head_total > 0
            ? static_cast<double>(r.holb.BulkHeadBlockNs()) / head_total
            : 0.0;
    std::printf("bulk (>=128KB) share of NSQ-head blocking: %s\n",
                FormatPercent(bulk_share).c_str());
    if (!trace_path.empty()) {
      // One Perfetto-loadable artifact per stack; the blk-mq one lands on
      // the DD_TRACE_JSON path itself.
      const std::string path = kind == StackKind::kVanilla
                                   ? trace_path
                                   : trace_path + ".daredevil.json";
      std::FILE* f = std::fopen(path.c_str(), "wb");
      if (f == nullptr) {
        std::fprintf(stderr, "DD_TRACE_JSON: cannot open %s\n", path.c_str());
        continue;
      }
      std::fwrite(r.trace_json.data(), 1, r.trace_json.size(), f);
      std::fclose(f);
      std::printf("trace written to %s\n", path.c_str());
    }
  }
  std::printf(
      "\nPaper shape: on vanilla blk-mq the bulk T-commands account for the\n"
      "majority of L-request head-of-line blocking; Daredevil's NQ groups\n"
      "keep them off the L-queues, so the bulk share collapses.\n");
  return 0;
}
