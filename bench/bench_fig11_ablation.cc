// Figure 11: decomposition of Daredevil's optimizations. dare-base enables
// only the decoupled block layer with per-request round-robin routing;
// dare-sched adds NQ scheduling; dare-full adds SLA-aware I/O service
// dispatching. Panels (a)(b): single namespace under rising T-pressure;
// panels (c)(d): multi-namespace.
#include <vector>

#include "bench/bench_util.h"

using namespace daredevil;

namespace {

const std::vector<StackKind> kSubsystems = {StackKind::kDareBase,
                                            StackKind::kDareSched,
                                            StackKind::kDareFull};

}  // namespace

int main() {
  PrintHeader("Figure 11: Daredevil optimization decomposition",
              "§7.3, Fig. 11a-11d",
              "dare-base -> dare-sched -> dare-full; single- and multi-"
              "namespace scenarios on SV-M, 4 cores");

  BenchJsonSink json("fig11_ablation");
  std::printf("(a)(b) single namespace, rising T-pressure:\n");
  TablePrinter single({"T-tenants", "subsystem", "L p99.9", "L p99", "L avg",
                       "lock-wait/rq", "x-core compl"});
  for (int n_t : {8, 16, 32}) {
    for (StackKind kind : kSubsystems) {
      ScenarioConfig cfg = MakeSvmConfig(4);
      cfg.stack = kind;
      cfg.warmup = ScaledMs(30);
      cfg.duration = ScaledMs(150);
      AddLTenants(cfg, 4);
      AddTTenants(cfg, n_t);
      const ScenarioResult r = RunScenario(cfg);
      json.Add(std::string(StackKindName(kind)) + "/nt=" + std::to_string(n_t), r);
      const double lock_per_rq =
          r.requests_submitted() > 0
              ? static_cast<double>(r.lock_wait_ns()) /
                    static_cast<double>(r.requests_submitted())
              : 0.0;
      const double xcore =
          r.requests_completed() > 0
              ? static_cast<double>(r.cross_core_completions()) /
                    static_cast<double>(r.requests_completed())
              : 0.0;
      single.AddRow({std::to_string(n_t), std::string(StackKindName(kind)),
                     FormatMs(static_cast<double>(r.P999Ns("L"))),
                     FormatMs(static_cast<double>(r.P99Ns("L"))),
                     FormatMs(r.AvgLatencyNs("L")), FormatUs(lock_per_rq),
                     FormatPercent(xcore)});
    }
  }
  single.Print();

  std::printf("\n(c)(d) multi-namespace (L-ns:T-ns = 1:3):\n");
  TablePrinter multi({"namespaces", "subsystem", "L p99.9", "L avg"});
  for (int namespaces : {4, 8}) {
    for (StackKind kind : kSubsystems) {
      ScenarioConfig cfg = MakeSvmConfig(4);
      cfg.stack = kind;
      cfg.warmup = ScaledMs(30);
      cfg.duration = ScaledMs(150);
      cfg.device.namespace_pages.assign(static_cast<size_t>(namespaces),
                                        1ULL << 20);
      const int l_ns = namespaces / 4;
      for (int ns = 0; ns < namespaces; ++ns) {
        if (ns < l_ns) {
          AddLTenants(cfg, 2, static_cast<uint32_t>(ns));
        } else {
          AddTTenants(cfg, 8, static_cast<uint32_t>(ns));
        }
      }
      const ScenarioResult r = RunScenario(cfg);
      json.Add(std::string(StackKindName(kind)) + "/ns=" +
                   std::to_string(namespaces),
               r);
      multi.AddRow({std::to_string(namespaces), std::string(StackKindName(kind)),
                    FormatMs(static_cast<double>(r.P999Ns("L"))),
                    FormatMs(r.AvgLatencyNs("L"))});
    }
  }
  multi.Print();

  std::printf(
      "\nPaper shape: dare-base already resists HOL blocking (tail within\n"
      "~20%% of dare-full); dare-sched cuts average latency further (2-4x in\n"
      "the paper); dare-full improves tail latency except under low pressure\n"
      "and may cost a little average latency under very high pressure.\n");
  return 0;
}
