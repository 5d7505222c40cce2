// ddsim_cli: command-line driver for ad-hoc experiments.
//
// Runs one multi-tenant scenario with the given stack and tenant mix, prints
// a summary table, and optionally dumps per-request trace events as CSV:
//
//   ddsim_cli --stack=daredevil --cores=4 --l=4 --t=16 --duration-ms=150
//   ddsim_cli --stack=vanilla --t=32 --trace-csv=/tmp/trace.csv
//   ddsim_cli --stack=blk-switch --namespaces=8 --seed=7
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <system_error>

#include "src/stats/table.h"
#include "src/workload/scenario.h"

using namespace daredevil;

namespace {

struct CliOptions {
  std::string stack = "daredevil";
  int cores = 4;
  int l_tenants = 4;
  int t_tenants = 16;
  int namespaces = 1;
  double duration_ms = 150;
  double warmup_ms = 30;
  uint64_t seed = 42;
  int split_kb = 0;
  std::string trace_csv;
  bool help = false;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

// Reads all of `text` as a number of *out's type; false when characters are
// left over, there are no digits, or the value does not fit the type.
template <typename T>
bool ParseNumber(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

// A window in milliseconds: finite, and short enough that warm-up plus
// measurement still fits a Tick.
bool ParseMs(const std::string& text, double* out) {
  constexpr double kMaxMs = static_cast<double>(
      std::numeric_limits<Tick>::max() / 2 / kMillisecond);
  return ParseNumber(text, out) && std::isfinite(*out) &&
         std::fabs(*out) <= kMaxMs;
}

CliOptions ParseArgs(int argc, char** argv) {
  CliOptions opts;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    bool parsed = true;
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      opts.help = true;
    } else if (ParseFlag(arg, "--stack", &value)) {
      opts.stack = value;
    } else if (ParseFlag(arg, "--cores", &value)) {
      parsed = ParseNumber(value, &opts.cores);
    } else if (ParseFlag(arg, "--l", &value)) {
      parsed = ParseNumber(value, &opts.l_tenants);
    } else if (ParseFlag(arg, "--t", &value)) {
      parsed = ParseNumber(value, &opts.t_tenants);
    } else if (ParseFlag(arg, "--namespaces", &value)) {
      parsed = ParseNumber(value, &opts.namespaces);
    } else if (ParseFlag(arg, "--duration-ms", &value)) {
      parsed = ParseMs(value, &opts.duration_ms);
    } else if (ParseFlag(arg, "--warmup-ms", &value)) {
      parsed = ParseMs(value, &opts.warmup_ms);
    } else if (ParseFlag(arg, "--seed", &value)) {
      parsed = ParseNumber(value, &opts.seed);
    } else if (ParseFlag(arg, "--split-kb", &value)) {
      parsed = ParseNumber(value, &opts.split_kb);
    } else if (ParseFlag(arg, "--trace-csv", &value)) {
      opts.trace_csv = value;
    } else {
      std::fprintf(stderr, "unknown argument: %s (try --help)\n", arg);
      std::exit(2);
    }
    if (!parsed) {
      std::fprintf(stderr, "invalid argument: %s (try --help)\n", arg);
      std::exit(2);
    }
  }
  const char* bad = opts.cores < 1          ? "--cores must be >= 1"
                    : opts.duration_ms <= 0 ? "--duration-ms must be > 0"
                    : opts.warmup_ms < 0    ? "--warmup-ms must be >= 0"
                    : opts.l_tenants < 0    ? "--l must be >= 0"
                    : opts.t_tenants < 0    ? "--t must be >= 0"
                    : opts.split_kb < 0     ? "--split-kb must be >= 0"
                    : opts.split_kb % 4 != 0
                        ? "--split-kb must be a multiple of 4"
                    : opts.namespaces < 1   ? "--namespaces must be >= 1"
                                            : nullptr;
  if (bad != nullptr) {
    std::fprintf(stderr, "invalid argument: %s (try --help)\n", bad);
    std::exit(2);
  }
  return opts;
}

StackKind ParseStack(const std::string& name) {
  for (StackKind kind : {StackKind::kVanilla, StackKind::kStaticSplit,
                         StackKind::kBlkSwitch, StackKind::kDareBase,
                         StackKind::kDareSched, StackKind::kDareFull}) {
    if (name == StackKindName(kind)) {
      return kind;
    }
  }
  std::fprintf(stderr,
               "unknown stack '%s' (vanilla, static-split, blk-switch, "
               "dare-base, dare-sched, daredevil)\n",
               name.c_str());
  std::exit(2);
}

void PrintHelp() {
  std::printf(
      "ddsim_cli - run one multi-tenant storage-stack scenario\n\n"
      "  --stack=NAME        vanilla | static-split | blk-switch | dare-base |\n"
      "                      dare-sched | daredevil (default daredevil)\n"
      "  --cores=N           CPU cores (default 4)\n"
      "  --l=N               L-tenants: 4KB rand read QD1, realtime (default 4)\n"
      "  --t=N               T-tenants: 128KB stream write QD32 (default 16)\n"
      "  --namespaces=N      namespaces; tenants are spread 1:3 L:T (default 1)\n"
      "  --duration-ms=MS    measured window (default 150)\n"
      "  --warmup-ms=MS      warmup before measuring (default 30)\n"
      "  --seed=N            RNG seed (default 42)\n"
      "  --split-kb=KB       split block-layer I/O at KB, a multiple of 4\n"
      "                      (default off)\n"
      "  --trace-csv=PATH    dump tracepoint events to PATH as CSV\n");
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opts = ParseArgs(argc, argv);
  if (opts.help) {
    PrintHelp();
    return 0;
  }

  ScenarioConfig cfg = MakeSvmConfig(opts.cores);
  cfg.stack = ParseStack(opts.stack);
  cfg.seed = opts.seed;
  cfg.warmup = static_cast<Tick>(opts.warmup_ms * kMillisecond);
  cfg.duration = static_cast<Tick>(opts.duration_ms * kMillisecond);
  cfg.split_pages = static_cast<uint32_t>(opts.split_kb / 4);
  if (opts.namespaces > 1) {
    cfg.device.namespace_pages.assign(static_cast<size_t>(opts.namespaces),
                                      1ULL << 20);
    const int l_ns = std::max(1, opts.namespaces / 4);
    for (int ns = 0; ns < opts.namespaces; ++ns) {
      if (ns < l_ns) {
        AddLTenants(cfg, std::max(1, opts.l_tenants / l_ns),
                    static_cast<uint32_t>(ns));
      } else {
        AddTTenants(cfg,
                    std::max(1, opts.t_tenants / (opts.namespaces - l_ns)),
                    static_cast<uint32_t>(ns));
      }
    }
  } else {
    AddLTenants(cfg, opts.l_tenants);
    AddTTenants(cfg, opts.t_tenants);
  }
  // Opened before the run, so a bad path fails before any work is done.
  std::ofstream trace_out;
  if (!opts.trace_csv.empty()) {
    trace_out.open(opts.trace_csv);
    if (!trace_out) {
      std::fprintf(stderr, "cannot open --trace-csv %s\n",
                   opts.trace_csv.c_str());
      return 2;
    }
    cfg.trace_capacity = 1 << 20;
  }

  std::printf("stack=%s cores=%d L=%d T=%d namespaces=%d duration=%.0fms seed=%llu\n\n",
              opts.stack.c_str(), opts.cores, opts.l_tenants, opts.t_tenants,
              opts.namespaces, opts.duration_ms,
              static_cast<unsigned long long>(opts.seed));

  // One run path; the env outlives the run so the trace log can be dumped.
  ScenarioEnv env(cfg);
  env.Start();
  env.sim().RunUntil(env.measure_end());
  const ScenarioResult r = env.Finish();
  if (!opts.trace_csv.empty()) {
    env.trace_log()->WriteCsv(trace_out);
    trace_out.close();
    if (!trace_out) {
      std::fprintf(stderr, "cannot write --trace-csv %s\n",
                   opts.trace_csv.c_str());
      return 2;
    }
    std::printf("wrote %zu trace events (%llu recorded, %llu dropped) to %s\n\n",
                env.trace_log()->size(),
                static_cast<unsigned long long>(env.trace_log()->total_recorded()),
                static_cast<unsigned long long>(env.trace_log()->dropped()),
                opts.trace_csv.c_str());
  }
  TablePrinter table({"group", "avg", "p99", "p99.9", "IOPS", "tput"});
  for (const auto& [group, stats] : r.groups) {
    table.AddRow({group, FormatMs(stats.latency.Mean()),
                  FormatMs(static_cast<double>(stats.latency.P99())),
                  FormatMs(static_cast<double>(stats.latency.P999())),
                  FormatCount(r.Iops(group)),
                  FormatMiBps(r.ThroughputBps(group))});
  }
  table.Print();
  std::printf(
      "\ncpu=%.1f%% cross-core-completions=%llu lock-wait=%.1fus requeues=%llu "
      "irqs=%llu migrations=%llu\n",
      r.cpu_util * 100.0, static_cast<unsigned long long>(r.cross_core_completions()),
      static_cast<double>(r.lock_wait_ns()) / 1000.0,
      static_cast<unsigned long long>(r.requeues()),
      static_cast<unsigned long long>(r.irqs_total()),
      static_cast<unsigned long long>(r.migrations()));
  return 0;
}
