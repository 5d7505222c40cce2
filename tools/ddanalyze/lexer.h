// A small C++ lexer for ddanalyze (tools/ddanalyze/README in DESIGN.md §7).
//
// It is not a compiler front end: it produces identifier / number / punctuator
// tokens with line numbers, strips comments and string literals, records
// the #include directives (so the include-graph builder can read them), the
// include-guard pair and the other directives' tokens, and extracts
// `// ddanalyze: <rule>-ok(reason)` waiver comments. That is enough for the
// token-level rules and keeps the tool dependency-free.
#ifndef DAREDEVIL_TOOLS_DDANALYZE_LEXER_H_
#define DAREDEVIL_TOOLS_DDANALYZE_LEXER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

namespace ddanalyze {

enum class TokKind {
  kIdent,  // identifiers and keywords
  kNumber, // integer / floating literals (text preserved)
  kPunct,  // operators and punctuation, multi-char ops kept whole
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;
};

// One `#include "..."` directive (angle-bracket includes are recorded with
// angled=true so the layer rule can ignore system headers).
struct IncludeDirective {
  std::string path;
  int line = 0;
  bool angled = false;
};

struct LexedFile {
  std::vector<Token> tokens;
  std::vector<IncludeDirective> includes;
  // Tokens of every directive other than #include (#define bodies, #if
  // conditions), each on its directive's first line. Kept apart from
  // `tokens` so the declaration-level passes never see macro text.
  std::vector<Token> directive_tokens;
  // Names from the first `#ifndef` and the first `#define` directive (empty
  // when there is none), and the line of that `#ifndef` (0 when none).
  std::string guard_ifndef;
  std::string guard_define;
  int guard_line = 0;
  // line -> waiver rule names ("escape", "layer", "tick") present on it.
  // Only `<rule>-ok(<non-empty reason>)` counts as a waiver.
  std::map<int, std::set<std::string>> waivers;

  bool HasWaiver(int line, const std::string& rule) const {
    auto it = waivers.find(line);
    return it != waivers.end() && it->second.count(rule) > 0;
  }
};

// Tokenizes `content`. Never fails: unrecognized bytes are skipped.
LexedFile Lex(const std::string& content);

}  // namespace ddanalyze

#endif  // DAREDEVIL_TOOLS_DDANALYZE_LEXER_H_
