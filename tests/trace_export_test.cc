// Trace export: the Chrome-trace builder must emit structurally well-formed
// event streams (balanced async begin/end per track, non-overlapping X
// slices, flow arrows across the IRQ hop) and byte-deterministic JSON that
// actually parses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"
#include "src/stats/holb.h"
#include "src/stats/slo.h"
#include "src/stats/state_sampler.h"
#include "src/stats/trace_export.h"
#include "src/workload/scenario.h"
#include "tests/json_keys.h"
#include "tests/scenario_capture.h"

namespace daredevil {
namespace {

// A completed request with a monotone stage chain, fully parameterized by the
// few fields the exporter branches on. Stage gaps are synthetic but ordered.
RequestRecord MakeRecord(uint64_t id, int nsq, Tick enqueue, Tick fetch_start,
                         Tick fetch, uint32_t pages = 1,
                         bool latency_sensitive = true) {
  RequestRecord r;
  r.id = id;
  r.tenant_id = id % 3;
  r.pages = pages;
  r.latency_sensitive = latency_sensitive;
  r.nsq = nsq;
  r.ncq = nsq;
  r.submit_core = nsq;
  r.irq_core = nsq;
  r.complete_core = nsq;
  r.t.issue = enqueue > 10 ? enqueue - 10 : 0;
  r.t.submit = enqueue > 5 ? enqueue - 5 : 0;
  r.t.nsq_enqueue = enqueue;
  r.t.doorbell = enqueue;
  r.t.fetch_start = fetch_start;
  r.t.fetch = fetch;
  r.t.flash_start = fetch;
  r.t.flash_end = fetch + 100;
  r.t.cqe_post = fetch + 110;
  r.t.drain = fetch + 130;
  r.t.complete = fetch + 150;
  return r;
}

TraceExportInput MakeInput(std::vector<RequestRecord> records) {
  TraceExportInput input;
  input.stack_name = "test-stack";
  input.num_cores = 4;
  input.nr_nsq = 4;
  input.nr_ncq = 4;
  input.requests = std::move(records);
  input.tenant_names[0] = "L0";
  input.tenant_names[1] = "T0";
  input.tenant_names[2] = "T1";
  return input;
}

TEST(JsonLooksValidTest, AcceptsWellFormedDocuments) {
  std::string err;
  EXPECT_TRUE(JsonLooksValid("{}", &err)) << err;
  EXPECT_TRUE(JsonLooksValid("[]", &err)) << err;
  EXPECT_TRUE(JsonLooksValid("[1, -2.5, 1e9, true, false, null]", &err)) << err;
  EXPECT_TRUE(JsonLooksValid(
      R"({"a": {"b": [1, "two", {"c": null}]}, "d": "\"\\\n\u0041"})", &err))
      << err;
  EXPECT_TRUE(JsonLooksValid("  {\"k\"\t:\n[ ]}  ", &err)) << err;
}

TEST(JsonLooksValidTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(JsonLooksValid(""));
  EXPECT_FALSE(JsonLooksValid("{"));
  EXPECT_FALSE(JsonLooksValid("{} trailing"));
  EXPECT_FALSE(JsonLooksValid("{\"a\": }"));
  EXPECT_FALSE(JsonLooksValid("{\"a\" 1}"));
  EXPECT_FALSE(JsonLooksValid("[1, 2,]"));
  EXPECT_FALSE(JsonLooksValid("{'single': 1}"));
  EXPECT_FALSE(JsonLooksValid("[nan]"));
  EXPECT_FALSE(JsonLooksValid("\"bad escape \\x\""));
  EXPECT_FALSE(JsonLooksValid("\"unterminated"));
  std::string err;
  EXPECT_FALSE(JsonLooksValid("[1, 2", &err));
  EXPECT_FALSE(err.empty());
}

// --- Structural checks, shared by the synthetic and the real-run cases ------

// A trace document's top-level keys: the events are its only copy of the
// request records and sampler series.
const std::vector<std::string> kTraceDocumentKeys = {
    "displayTimeUnit", "otherData", "traceEvents"};

// Metadata events come first, then data events in timestamp order.
void ExpectMetadataFirstThenTimestampOrder(const std::vector<ChromeEvent>& events) {
  ASSERT_FALSE(events.empty());
  bool seen_data = false;
  Tick last_ts = 0;
  for (const ChromeEvent& e : events) {
    if (e.ph == 'M') {
      EXPECT_FALSE(seen_data) << "metadata event after data events";
      continue;
    }
    if (seen_data) {
      EXPECT_GE(e.ts, last_ts) << "data events out of timestamp order";
    }
    seen_data = true;
    last_ts = e.ts;
  }
  EXPECT_TRUE(seen_data);
}

// Async slices pair by (pid, cat, id, name): every 'b' needs its 'e', and no
// 'e' comes before its 'b'.
void ExpectAsyncBalanced(const std::vector<ChromeEvent>& events,
                         const ChromeEventRenderer& renderer) {
  std::map<std::tuple<int, std::string, uint64_t, std::string>, int> balance;
  int async_begins = 0;
  for (const ChromeEvent& e : events) {
    if (e.ph != 'b' && e.ph != 'e') {
      continue;
    }
    EXPECT_TRUE(e.has_id()) << "async event without id: " << renderer.Name(e);
    const auto key = std::make_tuple(e.pid, std::string(renderer.Category(e)),
                                     e.id, renderer.Name(e));
    if (e.ph == 'b') {
      ++async_begins;
      balance[key] += 1;
    } else {
      EXPECT_GT(balance[key], 0) << "async end before begin: " << std::get<3>(key);
      balance[key] -= 1;
    }
  }
  EXPECT_GT(async_begins, 0);
  for (const auto& [key, count] : balance) {
    EXPECT_EQ(count, 0) << "unbalanced async pair: pid=" << std::get<0>(key)
                        << " cat=" << std::get<1>(key)
                        << " name=" << std::get<3>(key);
  }
}

// X slices on one (pid, tid) track never overlap.
void ExpectSlicesDisjoint(const std::vector<ChromeEvent>& events) {
  std::map<std::pair<int, int>, std::vector<std::pair<Tick, Tick>>> tracks;
  for (const ChromeEvent& e : events) {
    if (e.ph == 'X') {
      EXPECT_GE(e.dur, 0);
      tracks[{e.pid, e.tid}].emplace_back(e.ts, e.ts + e.dur);
    }
  }
  EXPECT_FALSE(tracks.empty());
  for (auto& [track, slices] : tracks) {
    std::sort(slices.begin(), slices.end());
    for (size_t i = 1; i < slices.size(); ++i) {
      EXPECT_GE(slices[i].first, slices[i - 1].second)
          << "overlapping X slices on pid=" << track.first
          << " tid=" << track.second;
    }
  }
}

TEST(TraceExportTest, MetadataEventsComeFirstThenTimestampOrder) {
  ExpectMetadataFirstThenTimestampOrder(BuildChromeEvents(MakeInput({
      MakeRecord(1, 0, 100, 200, 400),
      MakeRecord(2, 1, 150, 400, 500),
  })));
}

// Every field of an event, for exact comparisons.
auto Fields(const ChromeEvent& e) {
  return std::make_tuple(e.ts, e.dur, e.id, e.pid, e.tid, e.ref, e.sub, e.kind,
                         e.ph);
}

// Seeded inputs whose timestamps tie across records, event kinds and
// sources, and lie below zero and at and above 2^32 and 2^40 ns, so the
// ordering's radix sort runs every digit. The order must equal a stable sort
// by signed timestamp of the events in emission order, behind the untouched
// metadata prefix.
TEST(TraceExportTest, OrderMatchesStableSortReference) {
  constexpr Tick k32 = Tick{1} << 32;
  constexpr Tick k40 = Tick{1} << 40;
  const Tick kBases[] = {-k40, -1000,      0,   k32 - 2,
                         k32,  k32 + 2047, k40, k40 + 2};
  for (const uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    auto base = [&rng, &kBases] { return kBases[rng() % std::size(kBases)]; };
    auto step = [&rng] { return static_cast<Tick>(rng() % 3); };  // ties
    std::vector<RequestRecord> records;
    for (uint64_t id = 1; id <= 200; ++id) {
      RequestRecord r = MakeRecord(id, static_cast<int>(rng() % 4), 0, 0, 0,
                                   1 + static_cast<uint32_t>(rng() % 32),
                                   rng() % 2 == 0);
      Tick at = base();
      for (const TimelineStamp& stamp : kTimelineStamps) {
        r.t.*stamp.field = at;
        at += step();
      }
      r.irq_core = static_cast<int>(rng() % 4);  // some cross-core hops
      records.push_back(r);
    }
    TraceExportInput input = MakeInput(std::move(records));
    for (uint64_t i = 0; i < 100; ++i) {  // trace-ring instants
      TraceEvent te;
      te.at = base() + step();
      te.category = static_cast<TraceCategory>(rng() % kNumTraceCategories);
      te.id = i;
      te.a = static_cast<int64_t>(rng() % 4);
      te.b = static_cast<int64_t>(rng() % 4);
      input.events.push_back(te);
    }
    // Sampler counters every 2 ns from 2^40 on.
    Simulator sim;
    StateSampler sampler(2);
    sampler.AddProbe("depth", [&sim] {
      return static_cast<double>(sim.now() % 5 + 1);
    });
    sampler.Attach(&sim, k40, k40 + 40);
    sim.RunUntil(k40 + 40);
    input.sampler = &sampler;
    SloReport slo;
    SloTenantReport& tenant = slo.tenants["L0"];
    for (int i = 0; i < 30; ++i) {
      SloWindow window;
      window.start = base() + step();
      tenant.windows.push_back(window);
    }
    for (int i = 0; i < 10; ++i) {
      SloEpisode episode;
      episode.begin = base() + step();
      episode.end = episode.begin + 5;
      tenant.episodes.push_back(episode);
    }
    input.slo = &slo;

    std::vector<ChromeEvent> expected = EmitChromeEvents(input);
    const auto data =
        std::find_if(expected.begin(), expected.end(),
                     [](const ChromeEvent& e) { return e.ph != 'M'; });
    std::stable_sort(data, expected.end(),
                     [](const ChromeEvent& a, const ChromeEvent& b) {
                       return a.ts < b.ts;
                     });
    const std::vector<ChromeEvent> got = BuildChromeEvents(input);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(Fields(got[i]), Fields(expected[i])) << "event " << i;
    }
    // The input reached what the test is for.
    EXPECT_EQ(got[static_cast<size_t>(data - expected.begin())].ts, -k40);
    EXPECT_GE(got.back().ts, k40);
    std::set<ChromeEventKind> kinds_in_ties;
    for (size_t i = 1; i < got.size(); ++i) {
      if (got[i].ph != 'M' && got[i].ts == got[i - 1].ts &&
          got[i].kind != got[i - 1].kind) {
        kinds_in_ties.insert(got[i].kind);
      }
    }
    EXPECT_GE(kinds_in_ties.size(), 8u);
  }
}

TEST(TraceExportTest, AsyncBeginEndBalancedPerTrack) {
  const TraceExportInput input = MakeInput({
      MakeRecord(1, 0, 100, 200, 400, /*pages=*/32),
      MakeRecord(2, 0, 150, 400, 500),
      MakeRecord(3, 1, 120, 130, 140),
  });
  ExpectAsyncBalanced(BuildChromeEvents(input), ChromeEventRenderer(input));
}

TEST(TraceExportTest, CompleteSlicesNeverOverlapWithinATrack) {
  // Three same-NSQ requests with overlapping lifecycles: the head-occupancy
  // and fetch-engine X slices must still be disjoint per (pid, tid) track.
  ExpectSlicesDisjoint(BuildChromeEvents(MakeInput({
      MakeRecord(1, 0, 100, 200, 400, /*pages=*/32),
      MakeRecord(2, 0, 110, 400, 450),
      MakeRecord(3, 0, 120, 450, 460),
      MakeRecord(4, 1, 105, 460, 470),
  })));
}

TEST(TraceExportTest, IrqHopEmitsFlowArrows) {
  // Completion drained on core 1 but delivered on core 3: the cross-core hop
  // must be drawn as a flow (s on the IRQ core, f on the delivery core).
  RequestRecord hop = MakeRecord(7, 0, 100, 200, 300);
  hop.irq_core = 1;
  hop.complete_core = 3;
  RequestRecord local = MakeRecord(8, 1, 100, 300, 350);  // irq == complete

  const TraceExportInput input = MakeInput({hop, local});
  const auto events = BuildChromeEvents(input);
  const ChromeEventRenderer renderer(input);
  std::vector<const ChromeEvent*> starts;
  std::vector<const ChromeEvent*> finishes;
  for (const ChromeEvent& e : events) {
    if (e.ph == 's') starts.push_back(&e);
    if (e.ph == 'f') finishes.push_back(&e);
  }
  ASSERT_EQ(starts.size(), 1u);
  ASSERT_EQ(finishes.size(), 1u);
  EXPECT_EQ(starts[0]->id, finishes[0]->id);
  EXPECT_EQ(renderer.Category(*starts[0]), "irq-hop");
  EXPECT_EQ(renderer.Category(*finishes[0]), "irq-hop");
  EXPECT_EQ(starts[0]->tid, 1);    // drained on the IRQ core
  EXPECT_EQ(finishes[0]->tid, 3);  // delivered on the tenant core
  EXPECT_LE(starts[0]->ts, finishes[0]->ts);
}

// One TraceLog event of every category, first without request records and
// then with one: which categories become instants, on which (pid, tid)
// track, and with which name and args. Submit and deliver render nothing:
// the records draw those instants.
TEST(TraceExportTest, TraceCategoriesRenderAsInstants) {
  struct Expected {
    TraceCategory category;
    int pid;           // 0: the category renders nothing
    int tid;
    const char* json;  // the serialized event from "name" on, minus its '}'
  };
  // Every event carries id 70, a = 2 and b = 3.
  const Expected kExpected[] = {
      {TraceCategory::kSubmit, 0, 0, ""},
      {TraceCategory::kRoute, 0, 0, ""},
      {TraceCategory::kDoorbell, kTracePidNsq, 2,
       R"("name":"doorbell","args":{"batch":3})"},
      {TraceCategory::kFetchStart, 0, 0, ""},
      {TraceCategory::kFetch, 0, 0, ""},
      {TraceCategory::kFlashStart, 0, 0, ""},
      {TraceCategory::kFlashEnd, 0, 0, ""},
      {TraceCategory::kComplete, 0, 0, ""},
      {TraceCategory::kIrq, kTracePidHost, 3, R"("name":"irq NCQ2")"},
      {TraceCategory::kDeliver, 0, 0, ""},
      {TraceCategory::kSchedule, 0, 0, ""},
      {TraceCategory::kMigrate, kTracePidControl, 0,
       R"("name":"migrate tenant70","args":{"a":2,"b":3})"},
      {TraceCategory::kFaultInject, kTracePidControl, 0,
       R"("name":"fault-inject","args":{"id":70,"where":2,"kind":3})"},
      {TraceCategory::kTimeout, kTracePidControl, 0,
       R"("name":"timeout rq70","args":{"nsq":2,"attempt":3})"},
      {TraceCategory::kRetry, kTracePidControl, 0,
       R"("name":"retry rq70","args":{"nsq":2,"attempt":3})"},
      {TraceCategory::kAbort, kTracePidControl, 0,
       R"("name":"abort rq70","args":{"nsq":2,"attempt":3})"},
      {TraceCategory::kOther, 0, 0, ""},
  };
  ASSERT_EQ(std::size(kExpected), static_cast<size_t>(kNumTraceCategories));

  TraceExportInput input = MakeInput({});
  for (const Expected& x : kExpected) {
    ASSERT_EQ(static_cast<size_t>(x.category), input.events.size());
    TraceEvent te;
    te.at = 1000 * static_cast<Tick>(input.events.size() + 1);
    te.category = x.category;
    te.id = 70;
    te.a = 2;
    te.b = 3;
    input.events.push_back(te);
  }
  // The rendered TraceLog instants, keyed by event index (= category).
  auto instants = [](const TraceExportInput& in) {
    std::map<uint32_t, std::tuple<int, int, std::string>> out;
    const ChromeEventRenderer renderer(in);
    for (const ChromeEvent& e : BuildChromeEvents(in)) {
      if (e.kind != ChromeEventKind::kTraceEvent) {
        continue;
      }
      std::string json;
      renderer.AppendJson(json, e);
      const size_t name = json.find("\"name\":");
      out[e.ref] = {e.pid, e.tid, json.substr(name, json.size() - name - 1)};
    }
    return out;
  };
  auto expect_instants = [&](const TraceExportInput& in) {
    const auto got = instants(in);
    for (const Expected& x : kExpected) {
      SCOPED_TRACE(TraceCategoryName(x.category));
      const auto c = static_cast<uint32_t>(x.category);
      if (x.pid == 0) {
        EXPECT_EQ(got.count(c), 0u);
        continue;
      }
      ASSERT_EQ(got.count(c), 1u);
      EXPECT_EQ(got.at(c), std::make_tuple(x.pid, x.tid, std::string(x.json)));
    }
  };
  {
    SCOPED_TRACE("events only");
    expect_instants(input);
  }
  input.requests.push_back(MakeRecord(1, 0, 100, 200, 400));
  {
    SCOPED_TRACE("with a request record");
    expect_instants(input);
  }
}

TEST(TraceExportTest, SerializationIsDeterministicAndParses) {
  const TraceExportInput input = MakeInput({
      MakeRecord(1, 0, 100, 200, 400, /*pages=*/32),
      MakeRecord(2, 0, 150, 400, 500),
  });
  const std::string a = SerializeChromeTrace(input);
  const std::string b = SerializeChromeTrace(input);
  EXPECT_EQ(a, b) << "same input must serialize to identical bytes";
  std::string err;
  EXPECT_TRUE(JsonLooksValid(a, &err)) << err;
  EXPECT_EQ(ObjectKeys(a), kTraceDocumentKeys);
}

// The radix order sorts negative ticks first on purpose, so they must render
// as JSON numbers: sign, then the magnitude's "<us>.<ns%1000>".
TEST(TraceExportTest, NegativeTicksRenderSignAndMagnitude) {
  TraceExportInput input = MakeInput({});
  for (const Tick at : {Tick{-1500}, Tick{-500}, Tick{-7}, Tick{0}, Tick{1500}}) {
    TraceEvent te;
    te.at = at;
    te.category = TraceCategory::kMigrate;  // renders an instant
    te.id = 70;
    input.events.push_back(te);
  }
  const std::string json = SerializeChromeTrace(input);
  std::string err;
  EXPECT_TRUE(JsonLooksValid(json, &err)) << err;
  for (const char* ts : {"\"ts\":-1.500,", "\"ts\":-0.500,", "\"ts\":-0.007,",
                         "\"ts\":0.000,", "\"ts\":1.500,"}) {
    EXPECT_NE(json.find(ts), std::string::npos) << ts;
  }
}

// printf's digits: "%lld.%03lld" of (ns / 1000, ns % 1000) for a tick, with
// a minus sign and the magnitude below zero; "%llu" for an id; "%lld" for
// any other integer.
std::string TickText(Tick ns) {
  const uint64_t mag = ns < 0 ? 0 - static_cast<uint64_t>(ns)
                              : static_cast<uint64_t>(ns);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%lld.%03lld", ns < 0 ? "-" : "",
                static_cast<long long>(mag / 1000),
                static_cast<long long>(mag % 1000));
  return buf;
}
std::string IdText(uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(id));
  return buf;
}
std::string IntText(long long v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", v);
  return buf;
}

// Every number the serializer writes, digit for digit against printf: ticks
// of every digit count from 1 to 19 and below zero (as instants), and request
// ids, page counts, queue ids and tids across the one- and two-digit edges
// of the small-integer writer (as records, whose label text is rendered once
// per export).
TEST(TraceExportTest, RenderedNumbersMatchPrintf) {
  const uint64_t kIds[] = {0, 9, 10, 99, 100, (uint64_t{1} << 32) + 1,
                           UINT64_MAX};
  const uint32_t kPages[] = {1, 9, 10, 99, 100, 4096};
  const int kSmall[] = {-1, 0, 9, 10, 99, 100, 127};  // queue ids and tids
  std::vector<Tick> ticks;
  for (Tick p = 1;; p *= 10) {  // 0, 1, 9, 10, 99, 100, ..., 10^18
    ticks.push_back(p - 1);
    ticks.push_back(p);
    if (p > INT64_MAX / 10) {
      break;
    }
  }
  for (const Tick t : {(Tick{1} << 32) - 1, Tick{1} << 32, Tick{1} << 40,
                       Tick{INT64_MAX}, Tick{-1}, Tick{-999}, Tick{-1000},
                       Tick{INT64_MIN}}) {
    ticks.push_back(t);
  }

  std::vector<RequestRecord> records;
  for (size_t i = 0; i < std::size(kIds); ++i) {
    const Tick at = 100'000 * static_cast<Tick>(i + 1);
    RequestRecord r = MakeRecord(kIds[i], kSmall[i], at, at + 50, at + 70,
                                 kPages[i % std::size(kPages)], i % 2 == 0);
    r.is_write = i % 3 == 0;
    r.irq_core = kSmall[(i + 1) % std::size(kSmall)];  // IRQ-hop flows
    records.push_back(r);
  }
  TraceExportInput input = MakeInput(std::move(records));
  input.num_cores = 128;  // thread names for every tid above
  input.nr_nsq = 128;
  for (size_t i = 0; i < ticks.size(); ++i) {
    TraceEvent te;
    te.at = ticks[i];
    te.category = TraceCategory::kMigrate;
    te.id = kIds[i % std::size(kIds)];
    te.a = kSmall[i % std::size(kSmall)];
    te.b = ticks[i];
    input.events.push_back(te);
  }
  for (const int v : kSmall) {
    TraceEvent te;
    te.category = TraceCategory::kDoorbell;  // tid a
    te.a = v;
    te.b = v;
    input.events.push_back(te);
  }

  const ChromeEventRenderer renderer(input);
  std::map<ChromeEventKind, size_t> checked;
  std::set<Tick> ticks_seen;
  for (const ChromeEvent& e : BuildChromeEvents(input)) {
    std::string json;
    renderer.AppendJson(json, e);
    std::string want = "{\"ph\":\"" + std::string(1, e.ph) + "\"";
    if (e.ph != 'M') {
      want += ",\"ts\":" + TickText(e.ts);
    }
    if (e.ph == 'X') {
      want += ",\"dur\":" + TickText(e.dur);
    }
    want += ",\"pid\":" + IntText(e.pid) + ",\"tid\":" + IntText(e.tid) +
            ",\"name\":\"";
    // The rest, from the name on, for the kinds that name numbers.
    const RequestRecord* r =
        e.ref < input.requests.size() ? &input.requests[e.ref] : nullptr;
    std::string label, id;
    if (r != nullptr) {
      label = "rq " + IdText(r->id) + (r->latency_sensitive ? " L " : " T ") +
              IntText(r->pages) + (r->is_write ? "p W" : "p R");
      id = ",\"id\":\"" + IdText(r->id) + "\"";
    }
    const std::string tenant =
        r != nullptr ? "\"" + input.tenant_names.at(r->tenant_id) + "\"" : "";
    switch (e.kind) {
      case ChromeEventKind::kThreadName:
        if (e.pid == kTracePidHost) {
          want += "thread_name\",\"args\":{\"name\":\"core " +
                  IntText(e.tid) + "\"}}";
        } else if (e.pid == kTracePidNsq) {
          want += "thread_name\",\"args\":{\"name\":\"NSQ " +
                  IntText(e.tid) + "\"}}";
        }
        break;
      case ChromeEventKind::kRequest:
        want += label + "\",\"cat\":\"rq\"" + id;
        if (e.ph == 'b') {
          want += ",\"args\":{\"tenant\":" + tenant +
                  ",\"nsq\":" + IntText(r->nsq) + ",\"ncq\":" +
                  IntText(r->ncq) + ",\"pages\":" + IntText(r->pages) + "}";
        }
        want += "}";
        break;
      case ChromeEventKind::kStage:
        want += std::string(kStageSpans[e.sub].trace_name) +
                "\",\"cat\":\"rq\"" + id + "}";
        break;
      case ChromeEventKind::kFlash:
        want += "flash " + label + "\",\"cat\":\"flash\"" + id + "}";
        break;
      case ChromeEventKind::kCqe:
        want += "cqe " + label + " NCQ" + IntText(r->ncq) +
                "\",\"cat\":\"cqe\"" + id + "}";
        break;
      case ChromeEventKind::kSubmit:
        want += "submit rq" + IdText(r->id) + "\"}";
        break;
      case ChromeEventKind::kDrain:
        want += "drain rq" + IdText(r->id) + "\"}";
        break;
      case ChromeEventKind::kComplete:
        want += "complete rq" + IdText(r->id) + "\"}";
        break;
      case ChromeEventKind::kIrqHop:
        want += "irq-hop\",\"cat\":\"irq-hop\"" + id + ",\"bp\":\"e\"}";
        break;
      case ChromeEventKind::kNsqHead:
        want += label + "\",\"args\":{\"tenant\":" + tenant +
                ",\"pages\":" + IntText(r->pages) + "}}";
        break;
      case ChromeEventKind::kFetch:
        want += "fetch " + label + "\",\"args\":{\"nsq\":" +
                IntText(r->nsq) + "}}";
        break;
      case ChromeEventKind::kTraceEvent: {
        const TraceEvent& te = input.events[e.ref];
        if (te.category == TraceCategory::kMigrate) {
          want += "migrate tenant" + IdText(te.id) + "\",\"args\":{\"a\":" +
                  IntText(te.a) + ",\"b\":" + IntText(te.b) + "}}";
          ticks_seen.insert(e.ts);
        } else {
          want += "doorbell\",\"args\":{\"batch\":" + IntText(te.b) + "}}";
        }
        break;
      }
      default:
        break;
    }
    if (want.back() == '}') {  // the whole event
      EXPECT_EQ(json, want);
      ++checked[e.kind];
    } else {  // up to its name
      EXPECT_EQ(json.substr(0, want.size()), want);
    }
  }
  EXPECT_EQ(ticks_seen, std::set<Tick>(ticks.begin(), ticks.end()));
  for (const ChromeEventKind kind :
       {ChromeEventKind::kThreadName, ChromeEventKind::kRequest,
        ChromeEventKind::kStage, ChromeEventKind::kFlash, ChromeEventKind::kCqe,
        ChromeEventKind::kSubmit, ChromeEventKind::kDrain,
        ChromeEventKind::kComplete, ChromeEventKind::kIrqHop,
        ChromeEventKind::kNsqHead, ChromeEventKind::kFetch,
        ChromeEventKind::kTraceEvent}) {
    EXPECT_GT(checked[kind], 0u) << static_cast<int>(kind);
  }
}

TEST(TraceExportTest, TimelineLogDropsOldestWhenFull) {
  RequestTimelineLog log(/*capacity=*/2);
  Request rq;
  Tenant tenant;
  tenant.id = TenantId{1};
  rq.tenant = &tenant;
  for (uint64_t i = 1; i <= 3; ++i) {
    rq.id = i;
    rq.routed_nsq = 0;
    rq.t.nsq_enqueue = 10 * i;
    rq.t.fetch_start = 10 * i + 1;
    rq.t.fetch = 10 * i + 2;
    rq.t.flash_start = 10 * i + 3;
    rq.t.flash_end = 10 * i + 4;
    rq.t.cqe_post = 10 * i + 5;
    rq.t.drain = 10 * i + 6;
    rq.t.complete = 10 * i + 7;
    log.Append(rq, /*irq_core=*/0, /*ncq=*/0);
  }
  EXPECT_EQ(log.total_recorded(), 3u);
  EXPECT_EQ(log.dropped(), 1u);
  const auto records = log.Records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].id, 2u);  // oldest (id 1) was evicted
  EXPECT_EQ(records[1].id, 3u);
}

TEST(TraceExportTest, ScenarioExportIsPerfettoShaped) {
  ScenarioConfig cfg = MakeSvmConfig(4);
  cfg.stack = StackKind::kVanilla;
  cfg.warmup = kMillisecond;
  cfg.duration = 10 * kMillisecond;
  cfg.export_trace = true;
  cfg.sample_interval = kMillisecond;
  AddLTenants(cfg, 2);
  AddTTenants(cfg, 2);
  const ScenarioResult r = RunScenario(cfg);
  ASSERT_FALSE(r.trace_json.empty());
  std::string err;
  EXPECT_TRUE(JsonLooksValid(r.trace_json, &err)) << err;
  EXPECT_GT(r.timeline_total, 0u);
  EXPECT_NE(r.trace_json.find("\"process_name\""), std::string::npos);
  // The sampler series are written once in the trace, as counter tracks,
  // and once in the report, as "observability.sampler"; the metrics
  // snapshot holds none of them.
  EXPECT_EQ(ObjectKeys(r.trace_json), kTraceDocumentKeys);
  EXPECT_NE(r.trace_json.find("{\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(r.trace_json.find("\"name\":\"nsq.occupancy\",\"args\":{\"value\":"),
            std::string::npos);
  ASSERT_FALSE(r.sampler.empty());
  for (const auto& [name, value] : r.metrics) {
    EXPECT_NE(name.rfind("sampler.", 0), 0u) << name;
  }
}

// A real run with every observer attached: `kind` with the trace ring, the
// sampler and a tight L SLO, optionally under the dense fault schedule.
ScenarioConfig RealRunConfig(StackKind kind, bool faults) {
  ScenarioConfig cfg = MakeSvmConfig(4);
  cfg.stack = kind;
  cfg.warmup = kMillisecond;
  cfg.duration = 10 * kMillisecond;
  cfg.trace_capacity = 1 << 15;
  cfg.sample_interval = kMillisecond;
  cfg.export_trace = true;
  if (faults) {
    cfg.faults = MakeDenseFaultPlan(0.02);
    cfg.fault_recovery.timeout = TickDuration{2 * kMillisecond};
    cfg.fault_recovery.backoff = TickDuration{100 * kMicrosecond};
  }
  SloSpec spec;
  spec.selector = "L";
  spec.threshold = 30 * kMicrosecond;
  spec.window = kMillisecond;
  cfg.slos.push_back(spec);
  AddLTenants(cfg, 2);
  AddTTenants(cfg, 2);
  return cfg;
}

TEST(TraceExportTest, RealRunEventsAreStructurallySound) {
  const std::pair<StackKind, bool> kRuns[] = {
      {StackKind::kVanilla, false},  {StackKind::kVanilla, true},
      {StackKind::kDareFull, false}, {StackKind::kDareFull, true},
      {StackKind::kBlkSwitch, false}, {StackKind::kBlkSwitch, true}};
  for (const auto& [kind, faults] : kRuns) {
    SCOPED_TRACE(std::string(StackKindName(kind)) +
                 (faults ? ", dense faults" : ", fault-free"));
    const ScenarioConfig cfg = RealRunConfig(kind, faults);
    CapturedRun run = CaptureRun(cfg);
    ASSERT_FALSE(run.records.empty());
    const BlockingIntervals intervals(run.records);
    HolbOptions opts;
    opts.tenant_names = run.env->TenantNames();
    AttributeSloEpisodes(run.slo, HolbAnalyzer(run.records, intervals, opts));
    EXPECT_GT(run.slo.TotalEpisodes(), 0u);
    const TraceExportInput input = MakeExportInput(run, &run.slo);
    ASSERT_NE(input.sampler, nullptr);
    ASSERT_FALSE(input.events.empty());

    const std::vector<ChromeEvent> events = BuildChromeEvents(input);
    ExpectMetadataFirstThenTimestampOrder(events);
    ExpectAsyncBalanced(events, ChromeEventRenderer(input));
    ExpectSlicesDisjoint(events);
    // A real run starts at tick 0: no data event lies before it.
    for (const ChromeEvent& e : events) {
      if (e.ph != 'M') {
        ASSERT_GE(e.ts, 0) << ChromeEventRenderer(input).Name(e);
      }
    }
    // Every track kind made it in: NSQ heads, SLO episodes, counters and
    // (under faults) the fault instants on the control track.
    std::set<int> pids;
    for (const ChromeEvent& e : events) {
      pids.insert(e.pid);
    }
    for (int pid : {kTracePidHost, kTracePidNsq, kTracePidDevice, kTracePidNcq,
                    kTracePidRequests, kTracePidCounters, kTracePidSlo}) {
      EXPECT_EQ(pids.count(pid), 1u) << "no events on pid " << pid;
    }
    if (faults) {
      EXPECT_EQ(pids.count(kTracePidControl), 1u);
    }
    // The twin is faithful: it serializes to RunScenario's very bytes, a
    // valid document of exactly the three Chrome-trace keys.
    const std::string json = SerializeChromeTrace(input);
    EXPECT_EQ(json, RunScenario(cfg).trace_json);
    std::string err;
    EXPECT_TRUE(JsonLooksValid(json, &err)) << err;
    EXPECT_EQ(ObjectKeys(json), kTraceDocumentKeys);
  }
}

TEST(TraceExportTest, ControlCharactersInNamesStayValidJson) {
  // Tenant names reach the trace as args ("tenant"), as track names and in
  // SLO slice names; all of them must be escaped like ToJson escapes them.
  ScenarioConfig cfg = RealRunConfig(StackKind::kVanilla, /*faults=*/false);
  cfg.jobs[0].name = "L\t0";
  const ScenarioResult r = RunScenario(cfg);
  ASSERT_NE(r.slo.Find("L\t0"), nullptr);
  std::string err;
  EXPECT_TRUE(JsonLooksValid(r.trace_json, &err)) << err;
  EXPECT_NE(r.trace_json.find("\"tenant\":\"L\\t0\""), std::string::npos);
  EXPECT_NE(r.trace_json.find("\"SLO L\\t0\""), std::string::npos);
  EXPECT_NE(r.trace_json.find("\"name\":\"SLO violation L\\t0\""),
            std::string::npos);
  EXPECT_NE(r.trace_json.find("\"name\":\"burn L\\t0\""), std::string::npos);
  EXPECT_TRUE(JsonLooksValid(r.ToJson(), &err)) << err;
}

}  // namespace
}  // namespace daredevil
