// Mechanism ablations for claims and extensions the main figures do not
// isolate:
//   (1) §2.3's claim that the kernel's I/O splitting mechanism does NOT
//       resolve the multi-tenancy issue (split chunks occupy the same NQ
//       space in more entries);
//   (2) weighted-round-robin controller arbitration favouring Daredevil's
//       high-priority NSQs (§9's WRR-related work, an optional extension);
//   (3) polled completion for high-priority NCQs instead of interrupts
//       (§2.1 names polling as the alternative notification path).
#include <vector>

#include "bench/bench_util.h"

using namespace daredevil;

namespace {

ScenarioConfig Cell(StackKind kind) {
  ScenarioConfig cfg = MakeSvmConfig(/*cores=*/4);
  cfg.stack = kind;
  cfg.warmup = ScaledMs(30);
  cfg.duration = ScaledMs(120);
  AddLTenants(cfg, 4);
  AddTTenants(cfg, 16);
  return cfg;
}

std::vector<std::string> Row(const std::string& label, const ScenarioResult& r) {
  return {label, FormatMs(static_cast<double>(r.P999Ns("L"))),
          FormatMs(r.AvgLatencyNs("L")), FormatCount(r.Iops("L")),
          FormatMiBps(r.ThroughputBps("T")), FormatPercent(r.cpu_util)};
}

}  // namespace

int main() {
  PrintHeader("Mechanism ablations: I/O splitting, WRR arbitration, polling",
              "§2.3 (splitting), §2.1 (polling), related work [43] (WRR)",
              "Fig. 6 cell: 4 L + 16 T on 4 cores");

  BenchJsonSink json("ablation_mechanisms");
  std::printf("(1) vanilla blk-mq with the I/O splitting mechanism (§2.3):\n");
  TablePrinter split_table(
      {"split at", "L p99.9", "L avg", "L IOPS", "T tput", "CPU util"});
  for (uint32_t threshold : {0u, 16u, 8u, 4u}) {
    ScenarioConfig cfg = Cell(StackKind::kVanilla);
    cfg.split_pages = threshold;
    const ScenarioResult r = RunScenario(cfg);
    json.Add("split/" + std::to_string(threshold), r);
    split_table.AddRow(Row(threshold == 0 ? "off"
                                          : std::to_string(threshold * 4) + "KB",
                           r));
  }
  split_table.Print();
  std::printf(
      "Expected: no material improvement - the split chunks consolidated\n"
      "together occupy the same NQ space in more entries, so HOL blocking\n"
      "persists (the paper's §2.3 argument).\n\n");

  std::printf("(2) Daredevil with WRR arbitration weighting the L NQGroup:\n");
  TablePrinter wrr_table(
      {"config", "L p99.9", "L avg", "L IOPS", "T tput", "CPU util"});
  {
    ScenarioConfig cfg = Cell(StackKind::kDareFull);
    const ScenarioResult r = RunScenario(cfg);
    json.Add("wrr/rr-default", r);
    wrr_table.AddRow(Row("RR (default)", r));
  }
  for (int weight : {2, 4, 8}) {
    ScenarioConfig cfg = Cell(StackKind::kDareFull);
    cfg.dd.wrr_high_weight = weight;
    const ScenarioResult r = RunScenario(cfg);
    json.Add("wrr/w=" + std::to_string(weight), r);
    wrr_table.AddRow(Row("WRR w=" + std::to_string(weight), r));
  }
  wrr_table.Print();
  std::printf(
      "Expected: small additional L-side gains at most - NQ-level separation\n"
      "already removed in-queue HOL blocking, so arbitration weight mainly\n"
      "shifts fetch-engine share.\n\n");

  std::printf("(3) Daredevil with polled high-priority NCQs (no IRQs):\n");
  TablePrinter poll_table(
      {"config", "L p99.9", "L avg", "L IOPS", "T tput", "CPU util"});
  {
    ScenarioConfig cfg = Cell(StackKind::kDareFull);
    const ScenarioResult r = RunScenario(cfg);
    json.Add("poll/irq-default", r);
    poll_table.AddRow(Row("IRQ (default)", r));
  }
  for (Tick interval : {5 * kMicrosecond, 20 * kMicrosecond, 100 * kMicrosecond}) {
    ScenarioConfig cfg = Cell(StackKind::kDareFull);
    cfg.dd.poll_interval = TickDuration{interval};
    const ScenarioResult r = RunScenario(cfg);
    json.Add("poll/" + std::to_string(interval / kMicrosecond) + "us", r);
    poll_table.AddRow(
        Row("poll " + std::to_string(interval / kMicrosecond) + "us", r));
  }
  poll_table.Print();
  std::printf(
      "Expected: tight polling trades CPU for a small latency win (no IRQ\n"
      "delivery); loose polling adds up to one interval of completion delay.\n");
  return 0;
}
