// ddanalyze: the repo's static checker (DESIGN.md §7, §10 and §12). Every
// pass scans src/; the hygiene pass also scans bench/ and tests/ (never the
// fixture corpora under tests/ddanalyze_fixtures/). Waive one site with
// `// ddanalyze: <token>-ok(reason)`; the reason is mandatory, and every
// honoured waiver is counted as "waived.<token>" and ratcheted. The rules
// and their waiver tokens, in four suites:
//
// Architecture (DESIGN.md §7.1-§7.3):
//
//   layer-dag (layer)
//                 — includes must follow the layer table in layers.cc;
//                   cycles and undeclared (skip) edges are errors, as are
//                   include cycles in the file graph itself.
//   pooled-escape (escape)
//                 — pooled Request pointers must not outlive delivery:
//                   no Request*/& members in stats (observability copies),
//                   no by-reference lambda captures of Request pointers, no
//                   default captures in scopes holding live Request pointers.
//   tick-units (tick)
//                 — raw integer literals / raw-int locals flowing into
//                   Tick/TickDuration-typed parameters. Not an error: counted
//                   per layer and ratcheted against tools/ddanalyze-baseline.txt
//                   (the count may fall, never rise).
//
// Hygiene (DESIGN.md §7.5) — code-shape rules, hard errors:
//
//   bare-assert (assert), page-literal (units)
//                 — src/ only: DD_CHECK instead of assert() / <cassert>, and
//                   kPageBytes instead of a raw 4096.
//   engine-alloc (enginealloc)
//                 — src/sim/engine/ only: no std::function, make_unique /
//                   make_shared, malloc family or non-placement new.
//   unordered-iter (ordered), include-guard (guard)
//                 — src/, bench/ and tests/: no range-for over an unordered
//                   container, and the canonical DAREDEVIL_<PATH>_H_ guard.
//
// Shard-safety suite (DESIGN.md §10) — proves the tree is shard-partitionable
// before the sharded parallel simulation lands (ROADMAP item 2):
//
//   global-state (global)
//                 — namespace-scope non-const variables, mutable
//                   function-local statics, thread_local, and non-const class
//                   statics. Any of these is state shared between shards the
//                   moment two simulators run on two threads. const /
//                   constexpr / constinit and kConstant-named values are
//                   exempt. Ratcheted per layer like tick-units.
//   shard-ownership (shard)
//                 — every shard-local root type (Simulator, Machine, CpuCore,
//                   Rng, ShardContext, the engine internals, MetricsRegistry)
//                   has an owning layer and a set of layers allowed to hold a
//                   stored mutable alias (pointer/reference member or local).
//                   Borrowing through a parameter or accessor return is always
//                   fine; *storing* an alias outside the allowed layers (or
//                   any mutable alias in src/stats/, which must observe via
//                   copies and pull gauges) is an error. const-qualified
//                   aliases are shared-immutable views and always allowed.
//   rng-discipline (rng)
//                 — all randomness must flow through the seeded per-shard Rng
//                   (src/sim/rng.h). Bans <random> and the wall-clock headers
//                   (<chrono>, <ctime>, <time.h>, <sys/time.h>), and, at the
//                   symbol level, the libc/std generators (rand, srand,
//                   drand48, mt19937, random_device, ...) and time-derived
//                   seed sources (time(), clock(), gettimeofday, std::chrono).
//                   String literals and comments never match.
//
// Observer-neutrality suite (DESIGN.md §12) — call-graph-aware passes
// (tools/ddanalyze/callgraph.h) proving the observability surface cannot
// perturb the simulation:
//
//   observer-purity (purity)
//                 — every function under src/stats/ plus every DD_OBSERVER-
//                   annotated function must transitively reach no write to
//                   simulation-owned state (member stores / non-const calls
//                   on Simulator, Machine, Device, the queues, Rng, ...;
//                   stores through pooled Request*; const_cast). Hard
//                   errors. Callees the graph cannot resolve are ratcheted
//                   as "purity-unresolved.<layer>".
//   fingerprint-taint (taint)
//                 — observability-only ScenarioConfig fields (export_trace,
//                   sample_interval, slos, trace_capacity)
//                   must not flow into code that writes
//                   fingerprinted state. Region-scoped taint: if/while/for
//                   conditions taint their controlled blocks, other reads
//                   taint the enclosing statement. Hard errors;
//                   unresolved callees ratchet as "taint-unresolved.<layer>".
#ifndef DAREDEVIL_TOOLS_DDANALYZE_ANALYZER_H_
#define DAREDEVIL_TOOLS_DDANALYZE_ANALYZER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/ddanalyze/lexer.h"

namespace ddanalyze {

struct Finding {
  // The rule name, as listed in the header comment above (e.g. "layer-dag",
  // "page-literal", "purity-unresolved").
  std::string rule;
  std::string file;  // repo-relative path
  int line = 0;
  std::string message;
};

struct SourceFile {
  std::string rel_path;  // e.g. "src/nvme/device.h"
  LexedFile lex;
};

// --- Individual rules (exposed for unit tests) ----------------------------

// Layer-DAG rule over the whole file set: validates the table, maps files to
// layers, checks every quoted include edge, and reports file-graph cycles.
void CheckLayers(const std::vector<SourceFile>& files,
                 std::vector<Finding>* out);

// Pooled-escape rule for one file. `in_stats` marks src/stats/** files where
// Request*/& member declarations are additionally banned.
void CheckPooledEscapes(const SourceFile& file, bool in_stats,
                        std::vector<Finding>* out);

// Function name -> zero-based indices of Tick/TickDuration parameters,
// harvested from declarations in the scanned headers.
using TickSymbolTable = std::map<std::string, std::set<int>>;

TickSymbolTable BuildTickSymbols(const std::vector<SourceFile>& files);

void CheckTickUnits(const SourceFile& file, const TickSymbolTable& symbols,
                    std::vector<Finding>* out);

// Global-state rule for one file: namespace-scope non-const variables,
// mutable function-local statics, thread_local, non-const class statics.
// Findings are ratcheted per layer ("global-state.<layer>"), not errors.
void CheckGlobalState(const SourceFile& file, std::vector<Finding>* out);

// Shard-ownership rule for one file. `layer` is the file's ddanalyze layer
// (LayerOf); pass "" for unmapped files (every alias store is then flagged).
void CheckShardOwnership(const SourceFile& file, const std::string& layer,
                         std::vector<Finding>* out);

// RNG-stream discipline rule for one file: bans ambient randomness and
// time-derived seed sources at the include and identifier level.
void CheckRngDiscipline(const SourceFile& file, std::vector<Finding>* out);

// Hygiene rules for one file (bare-assert, page-literal, engine-alloc,
// unordered-iter, include-guard), each applied where its scope covers the
// file's path.
void CheckHygiene(const SourceFile& file, std::vector<Finding>* out);

// --- Driver ---------------------------------------------------------------

// One entry per pass the driver ran, in execution order, with wall time —
// surfaced by `ddanalyze --json` / `--list-passes` so the CI step summary
// shows which pass found what and how long it took.
struct PassStat {
  std::string name;
  double wall_ms = 0.0;
  int findings = 0;       // hard errors this pass emitted
  int ratchet_sites = 0;  // ratcheted (non-error) sites this pass emitted
};

// Names and one-line descriptions of every pass, in execution order
// (includes the "scan" and "callgraph" infrastructure steps).
std::vector<std::pair<std::string, std::string>> ListPasses();

struct AnalysisResult {
  // layer-dag + pooled-escape + shard-ownership + rng-discipline + the
  // hygiene rules + observer-purity + fingerprint-taint: must be empty for
  // the tree to pass.
  std::vector<Finding> errors;
  // tick-units + global-state + purity-unresolved + taint-unresolved sites
  // (informational, ratcheted).
  std::vector<Finding> ratchet;
  // "<rule>.<layer>" -> ratchet sites, and "waived.<token>" -> honoured
  // waivers in the scanned files; zero counts are omitted.
  std::map<std::string, int> ratchet_counts;
  // Per-pass wall time and finding counts, in execution order.
  std::vector<PassStat> passes;
};

// Scans <root>/{src,bench,tests}/**/*.{h,cc,cpp,hpp}, minus
// tests/ddanalyze_fixtures/, and runs all rules.
AnalysisResult Analyze(const std::string& root);

// Baseline file format: '#' comments and "<key> <count>" lines. Returns empty map and sets *err when the file cannot be read.
std::map<std::string, int> ReadBaseline(const std::string& path,
                                        std::string* err);
std::string FormatBaseline(const std::map<std::string, int>& counts);

// Ratchet comparison: every current count must be <= the baseline count
// (missing baseline key = 0). Returns violation messages (empty = pass).
std::vector<std::string> CompareToBaseline(
    const std::map<std::string, int>& current,
    const std::map<std::string, int>& baseline);

// JSON string-body escaping for the CLI's --json output (exposed here so the
// regression tests can drive it). Escapes '"', '\\' and every control
// character below 0x20 (\n, \t, \r get their short forms, the rest \u00XX),
// so findings whose messages quote source text stay valid JSON.
std::string JsonEscape(const std::string& s);

}  // namespace ddanalyze

#endif  // DAREDEVIL_TOOLS_DDANALYZE_ANALYZER_H_
