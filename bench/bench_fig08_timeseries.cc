// Figure 8: performance over time while T-pressure rises in stages (WS-M).
// Prints the windowed L-tenant average latency and T-tenant throughput
// series; blk-switch fluctuates once its cross-core scheduling starts
// thrashing, while Daredevil stays stable.
#include <vector>

#include "bench/bench_util.h"

using namespace daredevil;

int main() {
  PrintHeader("Figure 8: performance over time under rising T-pressure",
              "§7.1, Fig. 8 (avg latency + throughput time series)",
              "4 L-tenants; T-tenants arrive in waves of 8 every 60ms "
              "(scaled from the paper's 10-minute stages); 8 cores, WS-M");

  BenchJsonSink json("fig08_timeseries");
  const Tick stage = ScaledMs(60);
  const Tick window = ScaledMs(10);

  for (StackKind kind :
       {StackKind::kVanilla, StackKind::kBlkSwitch, StackKind::kDareFull}) {
    ScenarioConfig cfg = MakeWsmConfig(/*cores=*/8);
    cfg.stack = kind;
    cfg.warmup = 0;
    cfg.duration = 4 * stage;
    cfg.series_window = window;
    AddLTenants(cfg, 4);
    for (int wave = 0; wave < 4; ++wave) {
      for (int i = 0; i < 8; ++i) {
        FioJobSpec t = TTenantSpec(wave * 8 + i);
        t.start_time = wave * stage;
        cfg.jobs.push_back(t);
      }
    }
    const ScenarioResult r = RunScenario(cfg);
    json.Add(std::string(StackKindName(kind)), r);

    std::printf("--- %s ---\n", std::string(StackKindName(kind)).c_str());
    TablePrinter table({"t (ms)", "T-tenants", "L avg", "L p99", "T tput"});
    const auto& lat = r.latency_series.at("L");
    const auto& tput = r.bytes_series.at("T");
    const auto n = static_cast<size_t>(cfg.duration / window);
    for (size_t w = 0; w < n; ++w) {
      const Tick start = static_cast<Tick>(w) * window;
      const int tenants = 8 * std::min<int>(4, 1 + static_cast<int>(start / stage));
      const bool have_lat = w < lat.num_windows() && lat.WindowCount(w) > 0;
      const double tput_bps =
          w < tput.num_windows() ? tput.WindowRatePerSec(w) : 0.0;
      table.AddRow({FormatDouble(ToMs(start), 0), std::to_string(tenants),
                    have_lat ? FormatMs(lat.WindowMean(w)) : "(L blocked)",
                    have_lat
                        ? FormatMs(static_cast<double>(lat.WindowHistogram(w).P99()))
                        : "-",
                    FormatMiBps(tput_bps)});
    }
    table.Print();
    std::printf("migrations=%llu\n\n",
                static_cast<unsigned long long>(r.migrations()));
  }
  std::printf(
      "Paper shape: vanilla latency steps up with each wave; blk-switch's\n"
      "latency and throughput fluctuate window-to-window under high pressure\n"
      "(failed cross-core scheduling); Daredevil stays flat and low.\n");
  return 0;
}
