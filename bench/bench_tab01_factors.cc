// Table 1: comparison between Daredevil and prior works across the four
// design factors. The capability matrix is queried from the live stack
// objects, and Factor 2 (NQ exploitation) is additionally demonstrated at
// runtime by counting the distinct NSQs each stack touches.
#include "bench/bench_util.h"

using namespace daredevil;

namespace {

std::string Mark(bool v) { return v ? "yes" : "no"; }

}  // namespace

int main() {
  PrintHeader("Table 1: design-factor comparison", "§3.2, Table 1",
              "capabilities queried from the stack implementations");

  TablePrinter table({"stack", "F1 hw-indep", "F2 NQ-exploit", "F3 sched-autonomy",
                      "F4 multi-ns"});
  for (StackKind kind :
       {StackKind::kVanilla, StackKind::kBlkSwitch, StackKind::kDareFull}) {
    ScenarioConfig cfg = MakeSvmConfig(4);
    cfg.stack = kind;
    ScenarioEnv env(cfg);
    const StackCapabilities caps = env.stack().capabilities();
    table.AddRow({std::string(StackKindName(kind)), Mark(caps.hardware_independence),
                  Mark(caps.nq_exploitation), Mark(caps.cross_core_autonomy),
                  Mark(caps.multi_namespace_support)});
  }
  table.Print();

  std::printf("\nRuntime check (F2): distinct NSQs used, 4 cores, 64 NSQs, 4L+8T:\n");
  BenchJsonSink json("tab01_factors");
  TablePrinter usage({"stack", "NSQs used", "note"});
  for (StackKind kind :
       {StackKind::kVanilla, StackKind::kBlkSwitch, StackKind::kDareFull}) {
    ScenarioConfig cfg = MakeSvmConfig(4);
    cfg.stack = kind;
    cfg.warmup = ScaledMs(10);
    cfg.duration = ScaledMs(40);
    AddLTenants(cfg, 4);
    AddTTenants(cfg, 8);

    ScenarioEnv env(cfg);
    env.Start();
    env.sim().RunUntil(env.measure_end());

    int used = 0;
    for (int q = 0; q < env.device().nr_nsq(); ++q) {
      used += env.device().nsq(q).submitted_rqs() > 0 ? 1 : 0;
    }
    if (json.enabled()) {
      JsonWriter w;
      w.BeginObject();
      w.Key("nsqs_used").Int(used);
      w.Key("nr_nsq").Int(env.device().nr_nsq());
      w.EndObject();
      json.AddJson(std::string(StackKindName(kind)), w.str());
    }
    const char* note = kind == StackKind::kVanilla
                           ? "capped by core count (static binding)"
                           : (kind == StackKind::kBlkSwitch
                                  ? "per-core NQs only (steering among them)"
                                  : "full connectivity across both NQGroups");
    usage.AddRow({std::string(StackKindName(kind)), std::to_string(used), note});
  }
  usage.Print();
  return 0;
}
