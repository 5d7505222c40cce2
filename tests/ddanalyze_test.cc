// Tests for tools/ddanalyze: the layer table itself, and the fixture corpus
// under tests/ddanalyze_fixtures/. Every *_bad tree must produce its known
// findings; every *_good tree must come back clean (waivers included).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "tools/ddanalyze/analyzer.h"
#include "tools/ddanalyze/callgraph.h"
#include "tools/ddanalyze/layers.h"
#include "tools/ddanalyze/lexer.h"

namespace {

using ddanalyze::AnalysisResult;
using ddanalyze::Analyze;
using ddanalyze::Finding;

std::string FixtureRoot(const std::string& name) {
  return std::string(DDANALYZE_FIXTURE_DIR) + "/" + name;
}

bool HasFinding(const std::vector<Finding>& findings, const std::string& rule,
                const std::string& file_substr, const std::string& msg_substr) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.rule == rule && f.file.find(file_substr) != std::string::npos &&
           f.message.find(msg_substr) != std::string::npos;
  });
}

long CountFindings(const std::vector<Finding>& findings,
                   const std::string& rule, const std::string& file) {
  return std::count_if(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.rule == rule && f.file == file;
  });
}

TEST(LayerTable, IsAValidDag) {
  EXPECT_TRUE(ddanalyze::ValidateLayerTable().empty());
}

TEST(LayerTable, EdgesFollowTheDeclaredDeps) {
  EXPECT_TRUE(ddanalyze::LayerEdgeAllowed("nvme", "nvme"));
  EXPECT_TRUE(ddanalyze::LayerEdgeAllowed("nvme", "stats"));
  EXPECT_TRUE(ddanalyze::LayerEdgeAllowed("workload", "core"));
  // The engine sits below sim: sim may reach down, never the reverse.
  EXPECT_TRUE(ddanalyze::LayerEdgeAllowed("sim", "sim.engine"));
  EXPECT_TRUE(ddanalyze::LayerEdgeAllowed("stack", "sim.engine"));
  // Skips and reversals are rejected even when a transitive path exists.
  EXPECT_FALSE(ddanalyze::LayerEdgeAllowed("nvme", "core"));
  EXPECT_FALSE(ddanalyze::LayerEdgeAllowed("stats", "nvme"));
  EXPECT_FALSE(ddanalyze::LayerEdgeAllowed("time", "sim"));
  EXPECT_FALSE(ddanalyze::LayerEdgeAllowed("sim.engine", "sim"));
}

TEST(LayerTable, EngineSubdirectoryIsItsOwnLayer) {
  EXPECT_EQ(ddanalyze::LayerOf("src/sim/engine/ladder_queue.h"), "sim.engine");
  EXPECT_EQ(ddanalyze::LayerOf("src/sim/engine/event_fn.h"), "sim.engine");
  EXPECT_EQ(ddanalyze::LayerOf("src/sim/engine/event_arena.h"), "sim.engine");
  // Files directly under src/sim/ still map to the simulator layer.
  EXPECT_EQ(ddanalyze::LayerOf("src/sim/simulator.h"), "sim");
}

TEST(LayerTable, OverridesPinTheVocabularyFiles) {
  EXPECT_EQ(ddanalyze::LayerOf("src/core/types.h"), "vocab");
  EXPECT_EQ(ddanalyze::LayerOf("src/stack/request.h"), "vocab");
  EXPECT_EQ(ddanalyze::LayerOf("src/sim/clock.h"), "time");
  EXPECT_EQ(ddanalyze::LayerOf("src/core/nqreg.h"), "core");
  EXPECT_EQ(ddanalyze::LayerOf("src/nonsense/x.h"), "");
}

TEST(LayerDag, BadFixtureFlagsSkipCycleAndUnknownLayer) {
  const AnalysisResult r = Analyze(FixtureRoot("layer_bad"));
  EXPECT_EQ(r.errors.size(), 3u);
  EXPECT_TRUE(HasFinding(r.errors, "layer-dag", "bad_include.h",
                         "must not include layer 'apps'"));
  EXPECT_TRUE(HasFinding(r.errors, "layer-dag", "widget.h", "maps to no layer"));
  EXPECT_TRUE(HasFinding(r.errors, "layer-dag", "src/sim/", "include cycle"));
}

TEST(LayerDag, GoodFixtureIsCleanIncludingWaivedEdge) {
  const AnalysisResult r = Analyze(FixtureRoot("layer_good"));
  EXPECT_TRUE(r.errors.empty()) << r.errors.size() << " unexpected finding(s), "
                                << "first: "
                                << (r.errors.empty() ? "" : r.errors[0].message);
}

TEST(PooledEscape, BadFixtureFlagsEveryEscape) {
  const AnalysisResult r = Analyze(FixtureRoot("escape_bad"));
  EXPECT_EQ(r.errors.size(), 4u);
  EXPECT_TRUE(HasFinding(r.errors, "pooled-escape", "collector.h",
                         "field 'last_rq_'"));
  EXPECT_TRUE(HasFinding(r.errors, "pooled-escape", "collector.h",
                         "must not store Request pointers"));
  EXPECT_TRUE(HasFinding(r.errors, "pooled-escape", "submit.cc",
                         "capture of Request pointer 'rq' by reference"));
  EXPECT_TRUE(
      HasFinding(r.errors, "pooled-escape", "submit.cc", "default capture [&]"));
}

TEST(PooledEscape, GoodFixtureIsCleanIncludingWaivedStore) {
  const AnalysisResult r = Analyze(FixtureRoot("escape_good"));
  EXPECT_TRUE(r.errors.empty()) << r.errors.size() << " unexpected finding(s), "
                                << "first: "
                                << (r.errors.empty() ? "" : r.errors[0].message);
}

TEST(TickUnits, BadFixtureCountsBothRawSites) {
  const AnalysisResult r = Analyze(FixtureRoot("tick_bad"));
  EXPECT_TRUE(r.errors.empty());
  ASSERT_EQ(r.ratchet.size(), 2u);
  EXPECT_TRUE(HasFinding(r.ratchet, "tick-units", "use.cc",
                         "raw integer literal 1000"));
  EXPECT_TRUE(HasFinding(r.ratchet, "tick-units", "use.cc", "raw integer 'gap'"));
  ASSERT_EQ(r.ratchet_counts.count("tick-units.sim"), 1u);
  EXPECT_EQ(r.ratchet_counts.at("tick-units.sim"), 2);
}

TEST(TickUnits, GoodFixtureIsCleanIncludingWaivedSite) {
  const AnalysisResult r = Analyze(FixtureRoot("tick_good"));
  EXPECT_TRUE(r.errors.empty());
  EXPECT_TRUE(r.ratchet.empty())
      << "first: " << (r.ratchet.empty() ? "" : r.ratchet[0].message);
  // Only the honoured waiver itself is counted.
  EXPECT_EQ(r.ratchet_counts, (std::map<std::string, int>{{"waived.tick", 1}}));
}

TEST(GlobalState, BadFixtureFlagsEveryMutableStaticShape) {
  const AnalysisResult r = Analyze(FixtureRoot("globals_bad"));
  EXPECT_TRUE(r.errors.empty());
  EXPECT_EQ(r.ratchet.size(), 5u);
  EXPECT_TRUE(HasFinding(r.ratchet, "global-state", "state.h",
                         "namespace-scope mutable variable 'g_total'"));
  EXPECT_TRUE(HasFinding(r.ratchet, "global-state", "state.h",
                         "namespace-scope mutable variable 'g_remote'"));
  EXPECT_TRUE(
      HasFinding(r.ratchet, "global-state", "state.h", "thread_local storage"));
  EXPECT_TRUE(HasFinding(r.ratchet, "global-state", "state.h",
                         "non-const class static 'instances_'"));
  EXPECT_TRUE(HasFinding(r.ratchet, "global-state", "state.h",
                         "mutable function-local static"));
  ASSERT_EQ(r.ratchet_counts.count("global-state.sim"), 1u);
  EXPECT_EQ(r.ratchet_counts.at("global-state.sim"), 5);
}

TEST(GlobalState, GoodFixtureIsCleanIncludingWaivedKnob) {
  const AnalysisResult r = Analyze(FixtureRoot("globals_good"));
  EXPECT_TRUE(r.errors.empty());
  EXPECT_TRUE(r.ratchet.empty())
      << "first: " << (r.ratchet.empty() ? "" : r.ratchet[0].message);
  // Only the honoured waiver itself is counted.
  EXPECT_EQ(r.ratchet_counts,
            (std::map<std::string, int>{{"waived.global", 1}}));
}

TEST(ShardOwnership, BadFixtureFlagsStoredAliasesOutsideOwningLayers) {
  const AnalysisResult r = Analyze(FixtureRoot("shard_bad"));
  EXPECT_EQ(r.errors.size(), 3u);
  EXPECT_TRUE(HasFinding(r.errors, "shard-ownership", "observer.h",
                         "stored mutable alias to shard-local Simulator"));
  EXPECT_TRUE(HasFinding(r.errors, "shard-ownership", "observer.h",
                         "stored mutable alias to shard-local Rng"));
  EXPECT_TRUE(HasFinding(r.errors, "shard-ownership", "hotpath.h",
                         "stored mutable alias to shard-local EventArena"));
}

TEST(ShardOwnership, GoodFixtureAllowsBorrowsConstViewsAndOwningLayers) {
  const AnalysisResult r = Analyze(FixtureRoot("shard_good"));
  EXPECT_TRUE(r.errors.empty()) << r.errors.size() << " unexpected finding(s), "
                                << "first: "
                                << (r.errors.empty() ? "" : r.errors[0].message);
}

TEST(RngDiscipline, BadFixtureFlagsAmbientGeneratorsAndWallClock) {
  const AnalysisResult r = Analyze(FixtureRoot("rng_bad"));
  EXPECT_EQ(r.errors.size(), 8u);
  EXPECT_TRUE(HasFinding(r.errors, "rng-discipline", "gen.cc", "'<random>'"));
  EXPECT_TRUE(HasFinding(r.errors, "rng-discipline", "gen.cc", "'<chrono>'"));
  EXPECT_TRUE(HasFinding(r.errors, "rng-discipline", "gen.cc", "'std::chrono'"));
  EXPECT_TRUE(HasFinding(r.errors, "rng-discipline", "gen.cc", "'random_device'"));
  EXPECT_TRUE(HasFinding(r.errors, "rng-discipline", "gen.cc", "'mt19937'"));
  EXPECT_TRUE(HasFinding(r.errors, "rng-discipline", "gen.cc", "'time'"));
  EXPECT_TRUE(HasFinding(r.errors, "rng-discipline", "gen.cc", "'srand'"));
  EXPECT_TRUE(HasFinding(r.errors, "rng-discipline", "gen.cc", "'rand'"));
}

TEST(RngDiscipline, GoodFixtureAllowsLookAlikesAndWaivedCall) {
  const AnalysisResult r = Analyze(FixtureRoot("rng_good"));
  EXPECT_TRUE(r.errors.empty()) << r.errors.size() << " unexpected finding(s), "
                                << "first: "
                                << (r.errors.empty() ? "" : r.errors[0].message);
}

TEST(Hygiene, BadFixtureFlagsEveryShapeInItsScope) {
  const AnalysisResult r = Analyze(FixtureRoot("hygiene_bad"));
  EXPECT_EQ(r.errors.size(), 29u);
  // engine-alloc: one finding per banned shape, the macro body included.
  EXPECT_EQ(CountFindings(r.errors, "engine-alloc", "src/sim/engine/alloc.cc"),
            11);
  for (const char* what : {"std::function", "make_unique", "make_shared",
                           "malloc()", "calloc()", "realloc()",
                           "non-placement new"}) {
    EXPECT_TRUE(HasFinding(r.errors, "engine-alloc", "alloc.cc", what)) << what;
  }
  // bare-assert: both headers, a call, and a macro body; page-literal: a
  // literal, a macro body, and the two reasonless waivers.
  EXPECT_EQ(CountFindings(r.errors, "bare-assert", "src/workload/sizes.cc"), 4);
  EXPECT_TRUE(HasFinding(r.errors, "bare-assert", "sizes.cc", "<cassert>"));
  EXPECT_TRUE(HasFinding(r.errors, "bare-assert", "sizes.cc", "<assert.h>"));
  EXPECT_EQ(CountFindings(r.errors, "page-literal", "src/workload/sizes.cc"), 4);
  // unordered-iter: every declaration shape, in src/ and in bench/.
  EXPECT_EQ(CountFindings(r.errors, "unordered-iter", "src/workload/order.cc"),
            5);
  for (const char* name : {"'bag'", "'by_id'", "'seen'", "'groups'",
                           "'counts'"}) {
    EXPECT_TRUE(HasFinding(r.errors, "unordered-iter", "order.cc", name))
        << name;
  }
  EXPECT_EQ(CountFindings(r.errors, "unordered-iter", "bench/hash_order.cc"), 1);
  // include-guard: wrong name, wrong #define, #pragma once, and a tests/
  // header.
  EXPECT_TRUE(HasFinding(r.errors, "include-guard", "src/workload/table.h",
                         "DAREDEVIL_SRC_WORKLOAD_TABLE_H_ (found TABLE_H)"));
  EXPECT_TRUE(HasFinding(r.errors, "include-guard", "src/workload/half.h",
                         "found DAREDEVIL_SRC_WORKLOAD_HALF_H_"));
  EXPECT_TRUE(HasFinding(r.errors, "include-guard", "src/workload/once.h",
                         "(found none)"));
  EXPECT_TRUE(HasFinding(r.errors, "include-guard", "tests/helpers.h",
                         "DAREDEVIL_TESTS_HELPERS_H_"));
  // Outside src/ the src/-only rules stay silent.
  EXPECT_EQ(CountFindings(r.errors, "page-literal", "bench/hash_order.cc"), 0);
  EXPECT_EQ(CountFindings(r.errors, "bare-assert", "bench/hash_order.cc"), 0);
  // A waiver without a reason is neither honoured nor counted.
  EXPECT_TRUE(r.ratchet_counts.empty());
}

TEST(Hygiene, GoodFixtureIsCleanIncludingWaivedSites) {
  // Placement new, allocation outside the engine, look-alike literals, a
  // sorted copy, a classic for with a ternary, the canonical guards, a
  // skipped nested fixture tree, and one or two waived sites per token.
  const AnalysisResult r = Analyze(FixtureRoot("hygiene_good"));
  EXPECT_TRUE(r.errors.empty()) << r.errors.size() << " unexpected finding(s), "
                                << "first: "
                                << (r.errors.empty() ? "" : r.errors[0].message);
  EXPECT_TRUE(r.ratchet.empty());
  EXPECT_EQ(r.ratchet_counts, (std::map<std::string, int>{
                                  {"waived.assert", 1},
                                  {"waived.enginealloc", 1},
                                  {"waived.guard", 1},
                                  {"waived.ordered", 1},
                                  {"waived.units", 2},
                              }));
}

TEST(JsonEscape, ControlCharactersBecomeValidJsonEscapes) {
  // Regression for the --json output: a finding message quoting source text
  // can carry any control character; raw emission is invalid JSON.
  EXPECT_EQ(ddanalyze::JsonEscape("plain"), "plain");
  EXPECT_EQ(ddanalyze::JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(ddanalyze::JsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(ddanalyze::JsonEscape(std::string("\x01\x1f\x00", 3)),
            "\\u0001\\u001f\\u0000");
  // Bytes >= 0x20 (including UTF-8 continuation bytes) pass through.
  EXPECT_EQ(ddanalyze::JsonEscape("\xc3\xa9"), "\xc3\xa9");
}

TEST(Ratchet, BaselineRoundTripsAndComparesDirectionally) {
  const std::map<std::string, int> counts = {{"tick-units.sim", 2},
                                             {"tick-units.stack", 0}};
  const std::string text = ddanalyze::FormatBaseline(counts);
  EXPECT_NE(text.find("tick-units.sim 2"), std::string::npos);

  // Equal or lower counts pass; any increase (or a brand-new key) fails.
  EXPECT_TRUE(ddanalyze::CompareToBaseline(counts, counts).empty());
  EXPECT_TRUE(
      ddanalyze::CompareToBaseline({{"tick-units.sim", 1}}, counts).empty());
  EXPECT_EQ(
      ddanalyze::CompareToBaseline({{"tick-units.sim", 3}}, counts).size(), 1u);
  EXPECT_EQ(
      ddanalyze::CompareToBaseline({{"tick-units.apps", 1}}, counts).size(),
      1u);
}

TEST(Ratchet, WaiverCountsAreCappedByTheBaseline) {
  // Honoured waivers count per token, so adding one fails the ratchet just
  // as a new ratchet site does.
  const AnalysisResult r = Analyze(FixtureRoot("hygiene_good"));
  std::map<std::string, int> baseline = r.ratchet_counts;
  EXPECT_TRUE(ddanalyze::CompareToBaseline(r.ratchet_counts, baseline).empty());
  baseline["waived.units"] = 1;
  EXPECT_EQ(ddanalyze::CompareToBaseline(r.ratchet_counts, baseline).size(), 1u);
}

TEST(Lexer, WaiversAttachToTheirLineAndRule) {
  const ddanalyze::LexedFile lex = ddanalyze::Lex(
      "int a = 1;  // ddanalyze: tick-ok(reason)\n"
      "int b = 2;\n"
      "int c = 3;  // ddanalyze: escape-ok(reason)\n");
  EXPECT_TRUE(lex.HasWaiver(1, "tick"));
  EXPECT_FALSE(lex.HasWaiver(1, "escape"));
  EXPECT_FALSE(lex.HasWaiver(2, "tick"));
  EXPECT_TRUE(lex.HasWaiver(3, "escape"));

  // The reason is mandatory: bare, empty and blank forms are not waivers.
  const ddanalyze::LexedFile reasons = ddanalyze::Lex(
      "int d = rand();  // ddanalyze: rng-ok\n"
      "int e = rand();  // ddanalyze: rng-ok()\n"
      "int f = rand();  // ddanalyze: rng-ok( )\n"
      "int g = rand();  // ddanalyze: rng-ok(seeded by the harness)\n");
  EXPECT_FALSE(reasons.HasWaiver(1, "rng"));
  EXPECT_FALSE(reasons.HasWaiver(2, "rng"));
  EXPECT_FALSE(reasons.HasWaiver(3, "rng"));
  EXPECT_TRUE(reasons.HasWaiver(4, "rng"));
}

TEST(ObserverPurity, BadFixtureFlagsDirectTransitiveAndAnnotatedMutation) {
  const AnalysisResult r = Analyze(FixtureRoot("purity_bad"));
  EXPECT_EQ(r.errors.size(), 3u);
  // A DD_OBSERVER-annotated method that bumps a member of its own
  // simulation-owned class.
  EXPECT_TRUE(HasFinding(r.errors, "observer-purity", "sim.h",
                         "writes member 'peeks_'"));
  // A stats function scheduling work on the simulator directly.
  EXPECT_TRUE(HasFinding(r.errors, "observer-purity", "observer.cc",
                         "non-const call Simulator::ScheduleAt()"));
  // The same mutation two hops away, attributed back to its observer entry.
  EXPECT_TRUE(HasFinding(r.errors, "observer-purity", "helper.h",
                         "reachable from observer entry SampleLater"));
  // The opaque callback is ratcheted, not flagged.
  EXPECT_TRUE(HasFinding(r.ratchet, "purity-unresolved", "observer.cc",
                         "unresolved free call 'cb'"));
  ASSERT_EQ(r.ratchet_counts.count("purity-unresolved.stats"), 1u);
  EXPECT_EQ(r.ratchet_counts.at("purity-unresolved.stats"), 1);
}

TEST(ObserverPurity, GoodFixtureIsCleanIncludingWaivedSites) {
  // Const reads, chained calls on an observer-owned fluent writer, a local
  // lambda, and waived scheduling/callback sites: no errors, no ratchet.
  const AnalysisResult r = Analyze(FixtureRoot("purity_good"));
  EXPECT_TRUE(r.errors.empty()) << r.errors.size() << " unexpected finding(s), "
                                << "first: "
                                << (r.errors.empty() ? "" : r.errors[0].message);
  EXPECT_TRUE(r.ratchet.empty())
      << "first: " << (r.ratchet.empty() ? "" : r.ratchet[0].message);
}

TEST(FingerprintTaint, BadFixtureFlagsObservabilityKnobSteeringTheSim) {
  const AnalysisResult r = Analyze(FixtureRoot("taint_bad"));
  EXPECT_EQ(r.errors.size(), 1u);
  EXPECT_TRUE(HasFinding(r.errors, "fingerprint-taint", "run.cc",
                         "'sample_interval' flows into non-const call "
                         "Simulator::ScheduleAt()"));
  // The opaque callback inside the export_trace-tainted region ratchets.
  EXPECT_TRUE(HasFinding(r.ratchet, "taint-unresolved", "run.cc",
                         "tainted by 'export_trace'"));
  ASSERT_EQ(r.ratchet_counts.count("taint-unresolved.workload"), 1u);
  EXPECT_EQ(r.ratchet_counts.at("taint-unresolved.workload"), 1);
}

TEST(FingerprintTaint, GoodFixtureAllowsSinksWiringAndWaivedSites) {
  // Observer-owned sinks, allowlisted SetTraceLog wiring, and one waived
  // deliberate exception: no errors, no ratchet.
  const AnalysisResult r = Analyze(FixtureRoot("taint_good"));
  EXPECT_TRUE(r.errors.empty()) << r.errors.size() << " unexpected finding(s), "
                                << "first: "
                                << (r.errors.empty() ? "" : r.errors[0].message);
  EXPECT_TRUE(r.ratchet.empty())
      << "first: " << (r.ratchet.empty() ? "" : r.ratchet[0].message);
}

ddanalyze::SourceFile MakeFile(const std::string& path,
                               const std::string& text) {
  ddanalyze::SourceFile f;
  f.rel_path = path;
  f.lex = ddanalyze::Lex(text);
  return f;
}

const ddanalyze::CallSite* FindCall(const ddanalyze::CallGraph& g,
                                    const std::string& name) {
  for (const ddanalyze::CallSite& cs : g.calls) {
    if (cs.name == name) return &cs;
  }
  return nullptr;
}

TEST(CallGraph, ResolvesReceiversAndClassifiesConstness) {
  std::vector<ddanalyze::SourceFile> files;
  files.push_back(MakeFile("src/sim/sim.h",
                           "class Simulator {\n"
                           " public:\n"
                           "  void ScheduleAt(long when);\n"
                           "  long now() const;\n"
                           "};\n"));
  files.push_back(MakeFile("src/stats/obs.cc",
                           "class Simulator;\n"
                           "long Probe(Simulator* sim) {\n"
                           "  sim->ScheduleAt(1);\n"
                           "  return sim->now();\n"
                           "}\n"));
  const ddanalyze::CallGraph g = ddanalyze::BuildCallGraph(files);

  const ddanalyze::CallSite* sched = FindCall(g, "ScheduleAt");
  ASSERT_NE(sched, nullptr);
  EXPECT_EQ(sched->receiver_type, "Simulator");
  EXPECT_EQ(g.Classify(*sched, nullptr),
            ddanalyze::CallClass::kMutatingSimState);

  const ddanalyze::CallSite* now = FindCall(g, "now");
  ASSERT_NE(now, nullptr);
  EXPECT_EQ(g.Classify(*now, nullptr), ddanalyze::CallClass::kConstRead);
}

TEST(CallGraph, HandlesDeclarationsLambdasAndChainedCalls) {
  std::vector<ddanalyze::SourceFile> files;
  files.push_back(MakeFile(
      "src/stats/w.cc",
      "class W {\n"
      " public:\n"
      "  W(int capacity);\n"
      "  W& Key(const char* k) { return *this; }\n"
      "  W& Num(long v) { return *this; }\n"
      "};\n"
      "long Render(long v) {\n"
      "  W w(8);\n"                      // decl: constructor, not a call
      "  w.Key(\"x\").Num(v);\n"         // chained: owner fallback on Num
      "  auto scale = [](long x) { return x * 2; };\n"
      "  return scale(v);\n"             // local lambda: analyzed inline
      "}\n"));
  const ddanalyze::CallGraph g = ddanalyze::BuildCallGraph(files);

  // `W w(8)` resolves to W's constructor rather than a free call to `w`.
  EXPECT_EQ(FindCall(g, "w"), nullptr);
  const ddanalyze::CallSite* ctor = FindCall(g, "W");
  ASSERT_NE(ctor, nullptr);
  EXPECT_TRUE(ctor->resolved);

  // The chained `.Num(...)` receiver is ')' — the unique-owner fallback
  // resolves it to W and recursion proves it harmless.
  const ddanalyze::CallSite* num = FindCall(g, "Num");
  ASSERT_NE(num, nullptr);
  EXPECT_EQ(num->receiver_type, "W");
  EXPECT_EQ(g.Classify(*num, nullptr), ddanalyze::CallClass::kRecurse);

  // A call through a local lambda is safe: its body is part of Render's
  // own token range and is analyzed there.
  const ddanalyze::CallSite* scale = FindCall(g, "scale");
  ASSERT_NE(scale, nullptr);
  EXPECT_EQ(g.Classify(*scale, nullptr), ddanalyze::CallClass::kSafe);
}

TEST(Passes, ListPassesMatchesAnalyzeExecutionOrder) {
  const auto listed = ddanalyze::ListPasses();
  const AnalysisResult r = Analyze(FixtureRoot("layer_good"));
  ASSERT_EQ(r.passes.size(), listed.size());
  for (std::size_t i = 0; i < listed.size(); ++i) {
    EXPECT_EQ(r.passes[i].name, listed[i].first);
    EXPECT_GE(r.passes[i].wall_ms, 0.0);
    EXPECT_FALSE(listed[i].second.empty());
  }
}

TEST(Lexer, RawStringsConsumeTheirBodyAndKeepLineNumbers) {
  // Regression: the old lexer leaked prefixed raw strings token-by-token and
  // swallowed the rest of the file on a malformed `R"ident"` false trigger.
  const ddanalyze::LexedFile lex = ddanalyze::Lex(
      "const char* a = R\"(line one\n"
      "line two)\";\n"
      "int after_plain = 1;\n"
      "const char* b = R\"delim(has )\" inside)delim\";\n"
      "const char* c = u8R\"(utf8 raw)\";\n"
      "int z = R\"abc\";\n"  // not a raw string: R ident + ordinary string
      "int done = 2;\n");
  std::map<std::string, int> line_of;
  for (const ddanalyze::Token& t : lex.tokens) {
    if (t.kind == ddanalyze::TokKind::kIdent) line_of[t.text] = t.line;
    // Raw string bodies must never leak into the token stream.
    EXPECT_NE(t.text, "line");
    EXPECT_NE(t.text, "inside");
    EXPECT_NE(t.text, "utf8");
  }
  EXPECT_EQ(line_of.at("after_plain"), 3);  // the raw string spans lines 1-2
  EXPECT_EQ(line_of.at("b"), 4);
  EXPECT_EQ(line_of.at("c"), 5);
  EXPECT_EQ(line_of.at("z"), 6);
  EXPECT_EQ(line_of.at("R"), 6);  // the false trigger falls back to an ident
  EXPECT_EQ(line_of.at("done"), 7);
}

TEST(Lexer, CommentsStringsAndIncludesAreSeparated) {
  const ddanalyze::LexedFile lex = ddanalyze::Lex(
      "#include \"src/sim/clock.h\"\n"
      "#include <vector>\n"
      "// Request* in a comment is not a token\n"
      "const char* s = \"Request* in a string\";\n");
  ASSERT_EQ(lex.includes.size(), 2u);
  EXPECT_EQ(lex.includes[0].path, "src/sim/clock.h");
  EXPECT_FALSE(lex.includes[0].angled);
  EXPECT_TRUE(lex.includes[1].angled);
  for (const ddanalyze::Token& t : lex.tokens) {
    EXPECT_NE(t.text, "Request");
  }
}

}  // namespace
