// rng-discipline rule: every random draw in the simulator must flow through
// the seeded per-shard Rng stream (src/sim/rng.h) so that (a) runs are
// deterministic for a fixed seed and (b) shards never contend on a hidden
// global generator. Three ban lists; the lexer never matches comments or
// string literals, and symbols match only as whole identifiers:
//
//   * headers — `#include <random>`, and the wall-clock headers <chrono>,
//     <ctime>, <time.h> and <sys/time.h>. Nothing under src/ needs them.
//   * unconditional symbols — libc/std generator names (rand48 family,
//     random_device, mt19937, ...), the std::chrono clocks, and any
//     `std::chrono` name. Any mention under src/ is wrong: wall-clock time is
//     nondeterministic by definition and belongs in tools/benches, never
//     inside the simulated world.
//   * call-position symbols — `rand`, `time`, `clock`, ... flagged only when
//     used as a free-function call (next token `(`, not a member access, not
//     qualified by a foreign class). `machine.time()` and a `Tick time()`
//     declaration stay legal; `time(nullptr)` / `::time(0)` / `std::time(...)`
//     do not.
//
// Waive a deliberate site with `// ddanalyze: rng-ok(reason)`.
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "tools/ddanalyze/analyzer.h"

namespace ddanalyze {
namespace {

const std::set<std::string>& BannedSymbols() {
  static const std::set<std::string> kBanned = {
      // std <random> engines and the ambient entropy source
      "random_device", "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
      "default_random_engine", "ranlux24", "ranlux48", "ranlux24_base",
      "ranlux48_base", "knuth_b",
      // libc generator family (unambiguous names)
      "srand", "rand_r", "drand48", "erand48", "lrand48", "nrand48",
      "mrand48", "jrand48", "srand48", "seed48", "lcong48", "random_shuffle",
      // time-derived seed sources: chrono clocks
      "system_clock", "steady_clock", "high_resolution_clock",
      // time-derived seed sources: POSIX (unambiguous names)
      "gettimeofday", "clock_gettime", "timespec_get",
  };
  return kBanned;
}

const std::set<std::string>& BannedHeaders() {
  static const std::set<std::string> kHeaders = {"random", "chrono", "ctime",
                                                 "time.h", "sys/time.h"};
  return kHeaders;
}

// Names too common to ban on sight ("time" is also a layer and a natural
// accessor name); these are only wrong as free-function calls.
const std::set<std::string>& BannedCalls() {
  static const std::set<std::string> kCalls = {"rand", "time", "clock"};
  return kCalls;
}

}  // namespace

void CheckRngDiscipline(const SourceFile& file, std::vector<Finding>* out) {
  const std::vector<Token>& toks = file.lex.tokens;

  auto report = [&](int line, const std::string& symbol) {
    if (file.lex.HasWaiver(line, "rng")) {
      return;
    }
    out->push_back({"rng-discipline", file.rel_path, line,
                    "ambient randomness / wall-clock source '" + symbol +
                        "': all draws and seeds must come from the shard's "
                        "seeded Rng stream (src/sim/rng.h)"});
  };

  for (const IncludeDirective& inc : file.lex.includes) {
    if (inc.angled && BannedHeaders().count(inc.path) > 0) {
      report(inc.line, "<" + inc.path + ">");
    }
  }

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) {
      continue;
    }
    if (BannedSymbols().count(t.text) > 0) {
      report(t.line, t.text);
      continue;
    }
    if (t.text == "chrono" && i >= 2 && toks[i - 1].text == "::" &&
        toks[i - 2].text == "std") {
      report(t.line, "std::chrono");
      continue;
    }
    if (BannedCalls().count(t.text) == 0) {
      continue;
    }
    // Must be a call: next token `(`.
    if (i + 1 >= toks.size() || toks[i + 1].kind != TokKind::kPunct ||
        toks[i + 1].text != "(") {
      continue;
    }
    const Token* prev = i > 0 ? &toks[i - 1] : nullptr;
    if (prev != nullptr && prev->kind == TokKind::kPunct &&
        (prev->text == "." || prev->text == "->")) {
      continue;  // member call on a simulated object
    }
    if (prev != nullptr && prev->kind == TokKind::kPunct &&
        prev->text == "::") {
      // Qualified call: `::time(...)` and `std::time(...)` are the libc/std
      // functions; `Foo::time(...)` is someone's own accessor.
      const Token* qual = i >= 2 ? &toks[i - 2] : nullptr;
      if (qual != nullptr && qual->kind == TokKind::kIdent &&
          qual->text != "std") {
        continue;
      }
      report(t.line, t.text);
      continue;
    }
    if (prev != nullptr && prev->kind == TokKind::kIdent &&
        prev->text != "return" && prev->text != "co_return" &&
        prev->text != "co_await") {
      continue;  // `Tick time() const` — a declaration, not a call
    }
    report(t.line, t.text);
  }
}

}  // namespace ddanalyze
