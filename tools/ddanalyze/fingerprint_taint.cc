// fingerprint-taint rule (DESIGN.md §12.3): observability-only ScenarioConfig
// knobs must not flow into code that writes fingerprinted simulation state.
//
// SimulationFingerprint hashes ToJson(include_observability=false), so the
// contract is that flipping export_trace / sample_interval / slos /
// trace_capacity cannot move a single simulated byte. The
// determinism gates re-prove that dynamically per scenario; this pass
// closes the bug class statically: a *read* of one of those fields
// taints a region — the controlled block (else branch included) when the
// read sits in an if/while/for condition, otherwise the enclosing statement
// — and inside a tainted region any write to simulation-owned state, or any
// call that transitively reaches one, is a hard error.
//
// Observer wiring is the sanctioned exception: SetTraceLog / SetTimelineLog
// hand the stack a pointer to an observer sink and are allowlisted even
// though they are non-const calls on sim-owned receivers (the logs they
// install are append-only from the stack side and outside the fingerprint
// projection). Calls the graph cannot resolve inside a tainted region are
// ratcheted as "taint-unresolved.<layer>"; waive a deliberate site with
// `// ddanalyze: taint-ok(reason)`.
//
// Precision boundary, documented not hidden: taint is region-scoped, not
// dataflow-propagated. `bool t = cfg.export_trace; if (t) ...` escapes the
// net (the declaring statement is checked, the later use is not); the
// idiomatic direct forms — `if (config.export_trace) { ... }`, passing
// `config.slos` into a constructor — are exactly what it polices.
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/ddanalyze/callgraph.h"

namespace ddanalyze {
namespace {

// ScenarioConfig fields outside the fingerprinted JSON projection
// (src/workload/scenario.h, "observability" section). series_window is NOT
// here: it sizes the fingerprinted timeseries.dropped_early gauge.
const std::set<std::string>& ObservabilityFields() {
  static const std::set<std::string> kFields = {
      "export_trace", "sample_interval", "slos", "trace_capacity",
  };
  return kFields;
}

// Non-const calls on sim-owned receivers that exist to wire observers in.
const std::set<std::string>& WiringAllowlist() {
  static const std::set<std::string> kNames = {"SetTraceLog", "SetTimelineLog"};
  return kNames;
}

std::size_t MatchForward(const std::vector<Token>& toks, std::size_t open,
                         const char* open_text, const char* close_text,
                         std::size_t limit) {
  int depth = 0;
  for (std::size_t i = open; i < limit; ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == open_text) ++depth;
    if (toks[i].text == close_text && --depth == 0) return i;
  }
  return limit;
}

// The tainted region for a field read at `pos` inside [begin, end):
// the controlled block when the read is inside an if/while/for condition,
// else the enclosing statement (brace blocks that are part of the statement,
// e.g. lambda bodies, included).
std::pair<std::size_t, std::size_t> TaintRegion(const std::vector<Token>& toks,
                                                std::size_t pos,
                                                std::size_t begin,
                                                std::size_t end) {
  // Condition context: walk back looking for the unmatched '(' and the
  // keyword heading it.
  int depth = 0;
  for (std::size_t i = pos; i > begin; --i) {
    const Token& t = toks[i - 1];
    if (t.kind == TokKind::kPunct) {
      if (t.text == ")") ++depth;
      if (t.text == "(") {
        if (depth > 0) {
          --depth;
        } else {
          // Unmatched open paren: a condition if headed by a control keyword.
          if (i >= 2 && toks[i - 2].kind == TokKind::kIdent &&
              (toks[i - 2].text == "if" || toks[i - 2].text == "while" ||
               toks[i - 2].text == "for")) {
            const std::size_t close =
                MatchForward(toks, i - 1, "(", ")", end);
            std::size_t rb = close + 1;
            std::size_t re = rb;
            if (rb < end && toks[rb].kind == TokKind::kPunct &&
                toks[rb].text == "{") {
              re = MatchForward(toks, rb, "{", "}", end) + 1;
            } else {
              while (re < end && !(toks[re].kind == TokKind::kPunct &&
                                   toks[re].text == ";")) {
                ++re;
              }
              ++re;
            }
            // `else` / `else if` chains ride along.
            while (re < end && toks[re].kind == TokKind::kIdent &&
                   toks[re].text == "else") {
              std::size_t nb = re + 1;
              if (nb < end && toks[nb].kind == TokKind::kIdent &&
                  toks[nb].text == "if") {
                const std::size_t cond_open = nb + 1;
                if (cond_open < end &&
                    toks[cond_open].kind == TokKind::kPunct &&
                    toks[cond_open].text == "(") {
                  nb = MatchForward(toks, cond_open, "(", ")", end) + 1;
                }
              }
              if (nb < end && toks[nb].kind == TokKind::kPunct &&
                  toks[nb].text == "{") {
                re = MatchForward(toks, nb, "{", "}", end) + 1;
              } else {
                while (nb < end && !(toks[nb].kind == TokKind::kPunct &&
                                     toks[nb].text == ";")) {
                  ++nb;
                }
                re = nb + 1;
              }
            }
            return {rb, std::min(re, end)};
          }
          // Inside some other paren (a call argument): keep walking out so a
          // read in `Foo(cfg.slos)` still resolves to its statement.
        }
      }
    }
  }
  // Statement context: back to the previous ; { } and forward to the ';'
  // that closes the statement at paren depth 0, jumping over brace blocks.
  std::size_t rb = pos;
  while (rb > begin) {
    const Token& t = toks[rb - 1];
    if (t.kind == TokKind::kPunct &&
        (t.text == ";" || t.text == "{" || t.text == "}")) {
      break;
    }
    --rb;
  }
  std::size_t re = pos;
  int pdepth = 0;
  while (re < end) {
    const Token& t = toks[re];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(") ++pdepth;
      if (t.text == ")" && pdepth > 0) --pdepth;
      if (t.text == "{" && pdepth == 0) {
        re = MatchForward(toks, re, "{", "}", end);
        continue;
      }
      if (t.text == ";" && pdepth == 0) {
        ++re;
        break;
      }
    }
    ++re;
  }
  return {rb, std::min(re, end)};
}

}  // namespace

void CheckFingerprintTaint(const std::vector<SourceFile>& files,
                           const CallGraph& graph,
                           std::vector<Finding>* errors,
                           std::vector<Finding>* ratchet) {
  // De-dup across overlapping regions (two field reads in one condition).
  std::set<std::string> reported;
  auto report = [&](std::vector<Finding>* sink, const std::string& rule,
                    const std::string& file, int line,
                    const std::string& msg) {
    if (!reported.insert(rule + "|" + file + "|" + std::to_string(line) +
                         "|" + msg)
             .second) {
      return;
    }
    sink->push_back({rule, file, line, msg});
  };

  for (int fidx = 0; fidx < static_cast<int>(graph.functions.size());
       ++fidx) {
    const FunctionInfo& fn = graph.functions[fidx];
    if (!fn.has_body) continue;
    const SourceFile& sf = files[fn.file];
    const std::vector<Token>& toks = sf.lex.tokens;

    for (std::size_t i = fn.body_begin + 1; i + 1 < fn.body_end; ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent || ObservabilityFields().count(t.text) == 0)
        continue;
      // A field access (x.slos / cfg->export_trace), not a declaration...
      if (!(toks[i - 1].kind == TokKind::kPunct &&
            (toks[i - 1].text == "." || toks[i - 1].text == "->"))) {
        continue;
      }
      // ...and a read, not a store to the config itself (benches and tests
      // configure; that direction cannot leak into the simulation).
      if (toks[i + 1].kind == TokKind::kPunct &&
          (toks[i + 1].text == "=" || toks[i + 1].text == "(")) {
        continue;
      }

      const auto [rb, re] =
          TaintRegion(toks, i, fn.body_begin + 1, fn.body_end - 1);

      // Direct writes to sim-owned state inside the tainted region.
      for (const CallGraph::WriteSite& w :
           graph.FindSimOwnedWrites(fidx, rb, re)) {
        if (sf.lex.HasWaiver(w.line, "taint")) continue;
        report(errors, "fingerprint-taint", sf.rel_path, w.line,
               "observability-only '" + t.text + "' flows into " + w.message +
                   " [in " + fn.qualified_name() +
                   "]; fingerprinted state must not depend on it");
      }

      // Calls inside the region: must be observer-pure, transitively.
      auto cit = graph.calls_of.find(fidx);
      if (cit == graph.calls_of.end()) continue;
      for (int ci : cit->second) {
        const CallSite& cs = graph.calls[ci];
        if (cs.name_tok < rb || cs.name_tok >= re) continue;
        if (WiringAllowlist().count(cs.name) > 0) continue;
        if (sf.lex.HasWaiver(cs.line, "taint")) continue;
        std::string why;
        switch (graph.Classify(cs, &why)) {
          case CallClass::kMutatingSimState:
            report(errors, "fingerprint-taint", sf.rel_path, cs.line,
                   "observability-only '" + t.text + "' flows into " + why +
                       " [in " + fn.qualified_name() + "]");
            break;
          case CallClass::kConstRead:
          case CallClass::kSafe:
            break;
          case CallClass::kRecurse: {
            std::vector<int> starts;
            for (int tgt : cs.targets) {
              if (graph.functions[tgt].has_body) starts.push_back(tgt);
            }
            const ReachWalk walk = WalkReachable(graph, starts);
            for (const ReachWalk::Site& s : walk.mutations) {
              const FunctionInfo& deep = graph.functions[s.func];
              if (files[deep.file].lex.HasWaiver(s.line, "taint")) continue;
              if (files[deep.file].lex.HasWaiver(s.line, "purity")) continue;
              report(errors, "fingerprint-taint", sf.rel_path, cs.line,
                     "observability-only '" + t.text + "' flows through '" +
                         cs.name + "' into " + s.message + " (at " +
                         files[deep.file].rel_path + ":" +
                         std::to_string(s.line) + " in " +
                         deep.qualified_name() + ")");
            }
            for (const ReachWalk::Site& s : walk.unresolved) {
              const FunctionInfo& deep = graph.functions[s.func];
              if (files[deep.file].lex.HasWaiver(s.line, "taint")) continue;
              if (files[deep.file].lex.HasWaiver(s.line, "purity")) continue;
              report(ratchet, "taint-unresolved", files[deep.file].rel_path,
                     s.line,
                     s.message + " [in " + deep.qualified_name() +
                         ", reached from tainted call '" + cs.name + "' at " +
                         sf.rel_path + ":" + std::to_string(cs.line) + "]");
            }
            break;
          }
          case CallClass::kUnresolved:
            report(ratchet, "taint-unresolved", sf.rel_path, cs.line,
                   why + " [in " + fn.qualified_name() +
                       ", inside a region tainted by '" + t.text + "']");
            break;
        }
      }
    }
  }
}

}  // namespace ddanalyze
