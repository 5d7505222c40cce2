// Open-loop saturation study: latency-sensitive arrivals at a fixed rate
// (with bursts) while T-pressure rises. Closed-loop L-tenants (the paper's
// FIO jobs) self-throttle when the stack slows down; an open-loop source
// keeps the arrival pressure on, exposing the latency collapse that real
// interactive services experience.
#include <cstdlib>

#include "bench/bench_util.h"

using namespace daredevil;

int main() {
  PrintHeader("Open-loop arrivals under rising T-pressure",
              "extension (production block traces arrive open-loop, cf. [58])",
              "4 open-loop L sources (4KB reads, 5K IOPS each, 10% bursts of "
              "8) + N closed-loop T-tenants, 4 cores");

  // CI fault-soak mode: DD_FAULT_RATE > 0 runs the same sweep with a dense
  // fault schedule (every fault kind at that rate) and a 5ms watchdog, so
  // the error path gets exercised under open-loop pressure with sanitizers
  // and invariants on (EXPERIMENTS.md, "Error injection").
  const char* rate_env = std::getenv("DD_FAULT_RATE");
  const double fault_rate = rate_env != nullptr ? std::atof(rate_env) : 0.0;
  if (fault_rate > 0) {
    std::printf("fault-soak: DD_FAULT_RATE=%.4f (dense plan, 5ms watchdog)\n\n",
                fault_rate);
  }

  BenchJsonSink json("openloop_saturation");
  TablePrinter table({"T-tenants", "stack", "L avg", "L p99", "L p99.9",
                      "achieved IOPS", "dropped"});
  for (int n_t : {0, 8, 16}) {
    for (StackKind kind :
         {StackKind::kVanilla, StackKind::kBlkSwitch, StackKind::kDareFull}) {
      ScenarioConfig cfg = MakeSvmConfig(4);
      cfg.stack = kind;
      cfg.warmup = ScaledMs(30);
      cfg.duration = ScaledMs(150);
      AddTTenants(cfg, n_t);
      if (fault_rate > 0) {
        cfg.faults = MakeDenseFaultPlan(fault_rate);
        cfg.fault_recovery.timeout = TickDuration{5 * kMillisecond};
        cfg.fault_recovery.backoff = TickDuration{100 * kMicrosecond};
      }
      for (int i = 0; i < 4; ++i) {
        OpenLoopSpec spec;
        spec.name = "ol" + std::to_string(i);
        spec.group = "L";
        spec.ionice = IoniceClass::kRealtime;
        spec.pages = 1;
        spec.iops = 5000;
        spec.burst_prob = 0.1;
        spec.burst_len = 8;
        spec.core = i % 4;
        cfg.open_loop.push_back(spec);
      }
      const ScenarioResult r = RunScenario(cfg);
      if (fault_rate > 0) {
        std::printf(
            "  faults[%s nt=%d]: injected=%llu retries=%llu aborts=%llu "
            "timeouts=%llu failed=%llu errored=%llu\n",
            std::string(StackKindName(kind)).c_str(), n_t,
            static_cast<unsigned long long>(r.fault_injections()),
            static_cast<unsigned long long>(r.fault_retries()),
            static_cast<unsigned long long>(r.fault_aborts()),
            static_cast<unsigned long long>(r.fault_timeouts()),
            static_cast<unsigned long long>(r.failed_requests()),
            static_cast<unsigned long long>(r.total_errored));
      }
      json.Add(std::string(StackKindName(kind)) + "/nt=" + std::to_string(n_t),
               r);
      table.AddRow({std::to_string(n_t), std::string(StackKindName(kind)),
                    FormatMs(r.AvgLatencyNs("L")),
                    FormatMs(static_cast<double>(r.P99Ns("L"))),
                    FormatMs(static_cast<double>(r.P999Ns("L"))),
                    FormatCount(r.Iops("L")),
                    FormatCount(r.Metric("workload.L.dropped"))});
    }
  }
  table.Print();
  std::printf(
      "\nExpected: all stacks sustain the full offered load when idle; under\n"
      "T-pressure vanilla/blk-switch queue arrivals into seconds of backlog\n"
      "(achieved IOPS collapses, latency explodes) while Daredevil keeps\n"
      "absorbing the offered load at ms-scale latency.\n");
  return 0;
}
