// hygiene pass: five code-shape rules that keep failures reportable, units
// grep-able, iteration order deterministic and the event engine
// allocation-free (DESIGN.md §7.5). Every finding is a hard error; waive one
// site with `// ddanalyze: <token>-ok(reason)`, token in parentheses below.
//
//   bare-assert (assert)    src/ only: no assert() call and no <cassert> /
//                           <assert.h>. DD_CHECK (src/core/invariant.h)
//                           carries request id, tick and stage context.
//   page-literal (units)    src/ only: no raw 4096; byte quantities derive
//                           from kPageBytes (src/stack/request.h).
//   engine-alloc (enginealloc)
//                           src/sim/engine/ only: no std::function, no
//                           make_unique / make_shared, no malloc / calloc /
//                           realloc call, no non-placement `new`.
//   unordered-iter (ordered)
//                           src/, bench/, tests/: no range-for over a name
//                           the same file declares with an unordered
//                           container type; hash order is seed-independent
//                           nondeterminism.
//   include-guard (guard)   headers in src/, bench/, tests/: the first
//                           #ifndef and first #define name
//                           DAREDEVIL_<PATH>_H_.
//
// The token rules also read #define bodies and #if conditions
// (LexedFile::directive_tokens).
#include <cctype>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "tools/ddanalyze/analyzer.h"
#include "tools/ddanalyze/layers.h"

namespace ddanalyze {
namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

// "src/sim/trace.h" -> "DAREDEVIL_SRC_SIM_TRACE_H_".
std::string ExpectedGuard(const std::string& rel_path) {
  std::string guard = "DAREDEVIL_";
  for (char c : rel_path) {
    guard += c == '.' || c == '/' || c == '-'
                 ? '_'
                 : static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return guard + "_";
}

}  // namespace

void CheckHygiene(const SourceFile& file, std::vector<Finding>* out) {
  const std::string& path = file.rel_path;
  const bool in_src = StartsWith(path, "src/");
  const bool in_engine = LayerOf(path) == "sim.engine";

  auto report = [&](int line, const char* rule, const char* token,
                    const std::string& message) {
    if (!file.lex.HasWaiver(line, token)) {
      out->push_back({rule, path, line, message});
    }
  };
  // The token stream being scanned, and its text at index k; an index past
  // the end (including 0 - 1, which wraps) reads as "".
  const std::vector<Token>* toks = &file.lex.tokens;
  auto text = [&](std::size_t k) -> const std::string& {
    static const std::string kNone;
    return k < toks->size() ? (*toks)[k].text : kNone;
  };

  if (in_src) {
    for (const IncludeDirective& inc : file.lex.includes) {
      if (inc.angled && (inc.path == "cassert" || inc.path == "assert.h")) {
        report(inc.line, "bare-assert", "assert",
               "<" + inc.path + "> include: use DD_CHECK (src/core/invariant.h)");
      }
    }
  }

  // Names declared with an unordered container type:
  // `unordered_map<...> [&*]name` followed by ; = { ) or ,.
  std::set<std::string> unordered;
  for (std::size_t i = 0; i < toks->size(); ++i) {
    if (!StartsWith(text(i), "unordered_") || text(i + 1) != "<") {
      continue;
    }
    std::size_t j = i + 1;
    for (int depth = 0; j < toks->size(); ++j) {
      if (text(j) == "<") ++depth;
      if (text(j) == ">") --depth;
      if (text(j) == ">>") depth -= 2;
      if (depth <= 0) break;
    }
    ++j;
    while (text(j) == "&" || text(j) == "*" || text(j) == "&&") ++j;
    const std::string& next = text(j + 1);
    if (j < toks->size() && (*toks)[j].kind == TokKind::kIdent &&
        (next == ";" || next == "=" || next == "{" || next == ")" ||
         next == ",")) {
      unordered.insert(text(j));
    }
  }

  // The token rules also read #define bodies and #if conditions.
  for (const std::vector<Token>* stream :
       {&file.lex.tokens, &file.lex.directive_tokens}) {
    toks = stream;
    for (std::size_t i = 0; i < toks->size(); ++i) {
      const Token& t = (*toks)[i];
      if (in_src && t.kind == TokKind::kNumber && t.text == "4096") {
        report(t.line, "page-literal", "units",
               "raw 4096 literal: derive byte quantities from kPageBytes "
               "(src/stack/request.h), or waive if this is not a page-size "
               "quantity");
      }
      if (t.kind != TokKind::kIdent) {
        continue;
      }
      if (in_src && t.text == "assert" && text(i + 1) == "(") {
        report(t.line, "bare-assert", "assert",
               "bare assert(): use DD_CHECK/DD_CHECK_LE/DD_FAIL "
               "(src/core/invariant.h) so the failure carries request id, "
               "tick, and stage context");
      }
      if (in_engine) {
        std::string what;
        if (t.text == "function" && text(i - 1) == "::" &&
            text(i - 2) == "std") {
          what = "std::function (type-erased heap captures): use EventFn";
        } else if (t.text == "make_unique" || t.text == "make_shared") {
          what = t.text + " heap allocation";
        } else if ((t.text == "malloc" || t.text == "calloc" ||
                    t.text == "realloc") &&
                   text(i + 1) == "(") {
          what = t.text + "() C heap allocation";
        } else if (t.text == "new" && text(i + 1) != "(") {
          what = "non-placement new";
        }
        if (!what.empty()) {
          report(t.line, "engine-alloc", "enginealloc",
                 what + ": src/sim/engine/ schedules events without "
                        "allocating (arena slots + inline EventFn storage "
                        "only)");
        }
      }
      if (t.text != "for" || text(i + 1) != "(" || unordered.empty()) {
        continue;
      }
      // A range-for has a ':' at the top level of its parentheses, no ';'.
      std::size_t colon = 0;
      std::size_t j = i + 1;
      for (int depth = 0; j < toks->size(); ++j) {
        if (text(j) == "(") ++depth;
        if (text(j) == ")") --depth;
        if (depth == 0 || (depth == 1 && text(j) == ";")) break;
        if (depth == 1 && text(j) == ":" && colon == 0) colon = j;
      }
      if (colon == 0 || text(j) != ")") {
        continue;
      }
      for (std::size_t k = colon + 1; k < j; ++k) {
        if (unordered.count(text(k)) > 0) {
          report(t.line, "unordered-iter", "ordered",
                 "range-for over unordered container '" + text(k) +
                     "': iteration order is hash-dependent nondeterminism; "
                     "use an ordered container or a sorted copy");
          break;
        }
      }
    }
  }

  if (path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0) {
    const std::string want = ExpectedGuard(path);
    const LexedFile& lex = file.lex;
    if (lex.guard_ifndef != want || lex.guard_define != want) {
      report(lex.guard_line > 0 ? lex.guard_line : 1, "include-guard", "guard",
             "include guard must be " + want + " (found " +
                 (lex.guard_ifndef.empty() ? "none" : lex.guard_ifndef) + ")");
    }
  }
}

}  // namespace ddanalyze
