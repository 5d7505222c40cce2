#include "tools/ddanalyze/analyzer.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "tools/ddanalyze/callgraph.h"
#include "tools/ddanalyze/layers.h"

namespace ddanalyze {
namespace {

namespace fs = std::filesystem;

bool IsSourcePath(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

// Reads and lexes every source file under <root>/<dir> into *out, kept
// sorted by path. The fixture corpora are deliberately rule-breaking
// analyzer input, not code, and are skipped.
void ScanDir(const std::string& root, const std::string& dir,
             std::vector<SourceFile>* out) {
  const fs::path top = fs::path(root) / dir;
  if (!fs::exists(top)) {
    return;
  }
  for (const auto& entry : fs::recursive_directory_iterator(top)) {
    SourceFile f;
    f.rel_path = fs::relative(entry.path(), root).generic_string();
    if (!entry.is_regular_file() || !IsSourcePath(entry.path()) ||
        f.rel_path.compare(0, 25, "tests/ddanalyze_fixtures/") == 0) {
      continue;
    }
    std::ifstream in(entry.path());
    std::stringstream buf;
    buf << in.rdbuf();
    f.lex = Lex(buf.str());
    out->push_back(std::move(f));
  }
  std::sort(out->begin(), out->end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.rel_path < b.rel_path;
            });
}

}  // namespace

void CheckLayers(const std::vector<SourceFile>& files,
                 std::vector<Finding>* out) {
  // The table itself must be a DAG before any edge check means anything.
  for (const std::string& problem : ValidateLayerTable()) {
    out->push_back({"layer-dag", "(layer table)", 0, problem});
    return;
  }

  std::map<std::string, const SourceFile*> by_path;
  for (const SourceFile& f : files) {
    by_path[f.rel_path] = &f;
  }

  for (const SourceFile& f : files) {
    const std::string from_layer = LayerOf(f.rel_path);
    if (from_layer.empty()) {
      out->push_back({"layer-dag", f.rel_path, 0,
                      "file is under src/ but maps to no layer; add its "
                      "directory to the layer table"});
      continue;
    }
    for (const IncludeDirective& inc : f.lex.includes) {
      if (inc.angled || inc.path.compare(0, 4, "src/") != 0) {
        continue;  // system / third-party headers are out of scope
      }
      const std::string to_layer = LayerOf(inc.path);
      if (to_layer.empty()) {
        out->push_back({"layer-dag", f.rel_path, inc.line,
                        "include of '" + inc.path +
                            "' which maps to no declared layer"});
        continue;
      }
      if (f.lex.HasWaiver(inc.line, "layer")) {
        continue;
      }
      if (!LayerEdgeAllowed(from_layer, to_layer)) {
        out->push_back({"layer-dag", f.rel_path, inc.line,
                        "layer '" + from_layer + "' must not include layer '" +
                            to_layer + "' ('" + inc.path +
                            "'); edge not in the DESIGN.md §7.1 table"});
      }
    }
  }

  // Include cycles in the file graph (independent of the layer table).
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  for (const SourceFile& root : files) {
    if (color[root.rel_path] != 0) {
      continue;
    }
    std::vector<std::pair<std::string, std::size_t>> dfs{{root.rel_path, 0}};
    color[root.rel_path] = 1;
    while (!dfs.empty()) {
      auto& [path, next] = dfs.back();
      const SourceFile* file = by_path.count(path) ? by_path[path] : nullptr;
      const std::size_t n_edges =
          file != nullptr ? file->lex.includes.size() : 0;
      if (next >= n_edges) {
        color[path] = 2;
        dfs.pop_back();
        continue;
      }
      const IncludeDirective& inc = file->lex.includes[next++];
      if (inc.angled || by_path.count(inc.path) == 0) {
        continue;
      }
      if (color[inc.path] == 1) {
        out->push_back({"layer-dag", path, inc.line,
                        "include cycle: '" + path + "' -> '" + inc.path +
                            "' closes a loop"});
        continue;
      }
      if (color[inc.path] == 0) {
        color[inc.path] = 1;
        dfs.emplace_back(inc.path, 0);
      }
    }
  }
}

std::vector<std::pair<std::string, std::string>> ListPasses() {
  return {
      {"scan", "read + lex {src,bench,tests}/**/*.{h,cc,cpp,hpp}"},
      {"layer-dag", "include edges must follow the layer table; no cycles"},
      {"pooled-escape", "pooled Request pointers must not outlive delivery"},
      {"shard-ownership", "stored mutable aliases of shard roots by layer"},
      {"rng-discipline", "all randomness through the seeded per-shard Rng"},
      {"hygiene",
       "bare-assert, page-literal, engine-alloc (src/); unordered-iter, "
       "include-guard (src/, bench/, tests/)"},
      {"tick-units", "raw integers into tick-typed parameters (ratchet)"},
      {"global-state", "mutable static-storage state (ratchet)"},
      {"callgraph", "function/call-site index for the observer passes"},
      {"observer-purity",
       "src/stats/ + DD_OBSERVER code reaches no sim-state write"},
      {"fingerprint-taint",
       "observability-only config fields cannot reach fingerprinted state"},
  };
}

AnalysisResult Analyze(const std::string& root) {
  AnalysisResult result;
  std::vector<SourceFile> files;   // src/: every pass
  std::vector<SourceFile> others;  // bench/ and tests/: the hygiene pass only

  // Runs one named step, timing it and attributing any findings it appends.
  auto timed = [&result](const std::string& name, std::vector<Finding>* errs,
                         std::vector<Finding>* ratchet,
                         const std::function<void()>& body) {
    const std::size_t e0 = errs != nullptr ? errs->size() : 0;
    const std::size_t r0 = ratchet != nullptr ? ratchet->size() : 0;
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    PassStat stat;
    stat.name = name;
    stat.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    stat.findings =
        errs != nullptr ? static_cast<int>(errs->size() - e0) : 0;
    stat.ratchet_sites =
        ratchet != nullptr ? static_cast<int>(ratchet->size() - r0) : 0;
    result.passes.push_back(std::move(stat));
  };

  timed("scan", nullptr, nullptr, [&] {
    ScanDir(root, "src", &files);
    ScanDir(root, "bench", &others);
    ScanDir(root, "tests", &others);
  });

  timed("layer-dag", &result.errors, nullptr,
        [&] { CheckLayers(files, &result.errors); });
  timed("pooled-escape", &result.errors, nullptr, [&] {
    for (const SourceFile& f : files) {
      const bool in_stats = f.rel_path.compare(0, 10, "src/stats/") == 0;
      CheckPooledEscapes(f, in_stats, &result.errors);
    }
  });
  timed("shard-ownership", &result.errors, nullptr, [&] {
    for (const SourceFile& f : files) {
      CheckShardOwnership(f, LayerOf(f.rel_path), &result.errors);
    }
  });
  timed("rng-discipline", &result.errors, nullptr, [&] {
    for (const SourceFile& f : files) {
      CheckRngDiscipline(f, &result.errors);
    }
  });
  timed("hygiene", &result.errors, nullptr, [&] {
    for (const std::vector<SourceFile>* set : {&files, &others}) {
      for (const SourceFile& f : *set) {
        CheckHygiene(f, &result.errors);
      }
    }
  });
  timed("tick-units", nullptr, &result.ratchet, [&] {
    const TickSymbolTable symbols = BuildTickSymbols(files);
    for (const SourceFile& f : files) {
      CheckTickUnits(f, symbols, &result.ratchet);
    }
  });
  timed("global-state", nullptr, &result.ratchet, [&] {
    for (const SourceFile& f : files) {
      CheckGlobalState(f, &result.ratchet);
    }
  });

  CallGraph graph;
  timed("callgraph", nullptr, nullptr,
        [&] { graph = BuildCallGraph(files); });
  timed("observer-purity", &result.errors, &result.ratchet, [&] {
    CheckObserverPurity(files, graph, &result.errors, &result.ratchet);
  });
  timed("fingerprint-taint", &result.errors, &result.ratchet, [&] {
    CheckFingerprintTaint(files, graph, &result.errors, &result.ratchet);
  });

  for (const Finding& f : result.ratchet) {
    std::string layer = LayerOf(f.file);
    if (layer.empty()) {
      layer = "other";
    }
    ++result.ratchet_counts[f.rule + "." + layer];
  }
  // Waivers are debt too: the baseline caps them per token.
  for (const std::vector<SourceFile>* set : {&files, &others}) {
    for (const SourceFile& f : *set) {
      for (const auto& [line, tokens] : f.lex.waivers) {
        for (const std::string& token : tokens) {
          ++result.ratchet_counts["waived." + token];
        }
      }
    }
  }
  return result;
}

std::map<std::string, int> ReadBaseline(const std::string& path,
                                        std::string* err) {
  std::map<std::string, int> counts;
  std::ifstream in(path);
  if (!in) {
    if (err != nullptr) {
      *err = "cannot read baseline file '" + path + "'";
    }
    return counts;
  }
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    std::istringstream ls(line);
    std::string key;
    int count = 0;
    if (ls >> key >> count) {
      counts[key] = count;
    }
  }
  return counts;
}

std::string FormatBaseline(const std::map<std::string, int>& counts) {
  std::ostringstream out;
  out << "# ddanalyze ratchet baseline, per rule and layer:\n"
         "#   tick-units.<layer>        raw-integer sites flowing into\n"
         "#                             tick-typed parameters\n"
         "#   global-state.<layer>      mutable static-storage state (shared\n"
         "#                             across shards once they run on\n"
         "#                             threads)\n"
         "#   purity-unresolved.<layer> observer-reachable callees the call\n"
         "#                             graph cannot prove read-only\n"
         "#   taint-unresolved.<layer>  callees reached from regions tainted\n"
         "#                             by observability-only config fields\n"
         "#   waived.<token>            honoured `ddanalyze: <token>-ok(...)`\n"
         "#                             waivers in the scanned files\n"
         "# Counts may only decrease; regenerate with\n"
         "# `ddanalyze --root . --write-baseline` after burning sites down.\n";
  for (const auto& [key, count] : counts) {
    out << key << " " << count << "\n";
  }
  return out.str();
}

std::vector<std::string> CompareToBaseline(
    const std::map<std::string, int>& current,
    const std::map<std::string, int>& baseline) {
  std::vector<std::string> violations;
  for (const auto& [key, count] : current) {
    auto it = baseline.find(key);
    const int allowed = it == baseline.end() ? 0 : it->second;
    if (count > allowed) {
      std::ostringstream msg;
      msg << key << ": " << count << " sites, baseline allows " << allowed
          << " (fix the new sites; the ratchet only goes down)";
      violations.push_back(msg.str());
    }
  }
  return violations;
}

std::string JsonEscape(const std::string& s) {
  static const char* const kHex = "0123456789abcdef";
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (u < 0x20) {
          // Remaining control characters are invalid raw inside a JSON
          // string; \u00XX is the only legal spelling.
          out += "\\u00";
          out += kHex[u >> 4];
          out += kHex[u & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace ddanalyze
