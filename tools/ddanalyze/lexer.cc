#include "tools/ddanalyze/lexer.h"

#include <cctype>
#include <cstddef>

namespace ddanalyze {
namespace {

bool IsIdentStart(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool IsIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

// Multi-character punctuators the rules care about keeping whole. Longest
// match first within each leading character.
const char* const kPuncts[] = {
    "<<=", ">>=", "<=>", "...", "::", "->", "<<", ">>", "<=", ">=", "==",
    "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++",
    "--",
};

// Scans a comment body for `ddanalyze: <rule>-ok(<reason>)` waivers and
// records them. The reason is mandatory (DESIGN.md §7.4): a bare `rule-ok`
// or an empty `rule-ok()` is not a waiver.
void ScanWaivers(const std::string& body, int line, LexedFile* out) {
  const std::string tag = "ddanalyze:";
  std::size_t pos = body.find(tag);
  while (pos != std::string::npos) {
    std::size_t p = pos + tag.size();
    while (p < body.size() && body[p] == ' ') ++p;
    std::size_t start = p;
    while (p < body.size() && (IsIdentChar(body[p]) || body[p] == '-')) ++p;
    std::string word = body.substr(start, p - start);
    const std::string suffix = "-ok";
    const std::size_t close =
        p < body.size() && body[p] == '(' ? body.find(')', p) : std::string::npos;
    if (word.size() > suffix.size() &&
        word.compare(word.size() - suffix.size(), suffix.size(), suffix) == 0 &&
        close != std::string::npos &&
        body.find_first_not_of(" \t", p + 1) < close) {
      out->waivers[line].insert(word.substr(0, word.size() - suffix.size()));
    }
    pos = body.find(tag, p);
  }
}

// Parses a preprocessor directive line (already gathered, continuations
// folded). Records #include targets, the first #ifndef / #define names, and
// the tokens of every other directive.
void ParseDirective(const std::string& text, int line, LexedFile* out) {
  std::size_t p = 0;
  while (p < text.size() && (text[p] == ' ' || text[p] == '\t' || text[p] == '#')) ++p;
  std::size_t kw_end = p;
  while (kw_end < text.size() && IsIdentChar(text[kw_end])) ++kw_end;
  const std::string kw = text.substr(p, kw_end - p);
  p = kw_end;
  while (p < text.size() && (text[p] == ' ' || text[p] == '\t')) ++p;
  if ((kw == "ifndef" && out->guard_line == 0) ||
      (kw == "define" && out->guard_define.empty())) {
    std::size_t stop = p;
    while (stop < text.size() && IsIdentChar(text[stop])) ++stop;
    (kw == "ifndef" ? out->guard_ifndef : out->guard_define) =
        text.substr(p, stop - p);
    if (kw == "ifndef") out->guard_line = line;
  }
  if (kw != "include") {
    for (Token t : Lex(text.substr(p)).tokens) {
      t.line = line;
      out->directive_tokens.push_back(std::move(t));
    }
    return;
  }
  if (p >= text.size()) {
    return;
  }
  const char open = text[p];
  const char close = open == '<' ? '>' : '"';
  if (open != '<' && open != '"') {
    return;
  }
  std::size_t end = text.find(close, p + 1);
  if (end == std::string::npos) {
    return;
  }
  IncludeDirective inc;
  inc.path = text.substr(p + 1, end - p - 1);
  inc.line = line;
  inc.angled = open == '<';
  out->includes.push_back(inc);
}

}  // namespace

LexedFile Lex(const std::string& content) {
  LexedFile out;
  const std::size_t n = content.size();
  std::size_t i = 0;
  int line = 1;
  bool at_line_start = true;

  auto peek = [&](std::size_t off) -> char {
    return i + off < n ? content[i + off] : '\0';
  };

  while (i < n) {
    const char c = content[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }
    // Preprocessor directive: consume the logical line (with \-continuations).
    if (c == '#' && at_line_start) {
      const int start_line = line;
      std::string text;
      while (i < n) {
        if (content[i] == '\\' && peek(1) == '\n') {
          i += 2;
          ++line;
          continue;
        }
        if (content[i] == '\n') {
          break;
        }
        text.push_back(content[i]);
        ++i;
      }
      ParseDirective(text, start_line, &out);
      // A trailing comment on the directive (the idiomatic spot for a layer
      // waiver) is part of the consumed logical line; scan it here.
      ScanWaivers(text, start_line, &out);
      continue;
    }
    at_line_start = false;
    // Line comment.
    if (c == '/' && peek(1) == '/') {
      std::size_t end = content.find('\n', i);
      if (end == std::string::npos) end = n;
      ScanWaivers(content.substr(i, end - i), line, &out);
      i = end;
      continue;
    }
    // Block comment.
    if (c == '/' && peek(1) == '*') {
      std::size_t end = content.find("*/", i + 2);
      if (end == std::string::npos) end = n;
      const std::string body = content.substr(i, end - i);
      // Waivers bind to the line the comment starts on.
      ScanWaivers(body, line, &out);
      for (char b : body) {
        if (b == '\n') ++line;
      }
      i = end == n ? n : end + 2;
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t p = i + 1;
      while (p < n && content[p] != quote) {
        if (content[p] == '\\' && p + 1 < n) ++p;
        if (content[p] == '\n') ++line;
        ++p;
      }
      i = p < n ? p + 1 : n;
      continue;
    }
    // Identifier — or the prefix of a raw string literal. Raw strings must be
    // recognized through their identifier-shaped prefix (R, u8R, uR, LR, UR),
    // not by peeking at a bare 'R': otherwise `u8R"(...)"` lexes as the
    // identifier `u8R` plus an ordinary string, and the literal body leaks
    // spurious tokens / desynchronizes line tracking across its newlines.
    if (IsIdentStart(c)) {
      std::size_t p = i;
      while (p < n && IsIdentChar(content[p])) ++p;
      const std::string ident = content.substr(i, p - i);
      if (p < n && content[p] == '"' &&
          (ident == "R" || ident == "u8R" || ident == "uR" || ident == "LR" ||
           ident == "UR")) {
        // Validate the delimiter per [lex.string]: at most 16 chars, none of
        // which may be a parenthesis, backslash, quote, or whitespace. On a
        // malformed delimiter (e.g. `R"abc"` in test strings) fall back to
        // identifier + ordinary string instead of scanning for a ')' that may
        // be pages away — the old behavior silently swallowed the rest of the
        // file.
        std::size_t q = p + 1;
        std::string delim;
        bool valid = false;
        while (q < n && delim.size() <= 16) {
          const char d = content[q];
          if (d == '(') {
            valid = true;
            break;
          }
          if (d == ')' || d == '\\' || d == '"' || d == ' ' || d == '\t' ||
              d == '\n' || d == '\r' || d == '\v' || d == '\f') {
            break;
          }
          delim.push_back(d);
          ++q;
        }
        if (valid && delim.size() <= 16) {
          const std::string closer = ")" + delim + "\"";
          std::size_t end = content.find(closer, q + 1);
          if (end == std::string::npos) end = n;
          const std::size_t stop = end == n ? n : end + closer.size();
          for (std::size_t k = i; k < stop; ++k) {
            if (content[k] == '\n') ++line;
          }
          i = stop;
          continue;
        }
      }
      out.tokens.push_back({TokKind::kIdent, ident, line});
      i = p;
      continue;
    }
    // Number (handles 0x..., digit separators, suffixes; text preserved).
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t p = i;
      while (p < n && (IsIdentChar(content[p]) || content[p] == '\'' ||
                       ((content[p] == '+' || content[p] == '-') && p > i &&
                        (content[p - 1] == 'e' || content[p - 1] == 'E' ||
                         content[p - 1] == 'p' || content[p - 1] == 'P')))) {
        ++p;
      }
      // A trailing digit separator quote would have eaten into a char
      // literal; the simple scan above is fine for this codebase's rules.
      out.tokens.push_back({TokKind::kNumber, content.substr(i, p - i), line});
      i = p;
      continue;
    }
    // Punctuator: longest known multi-char operator, else a single char.
    bool matched = false;
    for (const char* op : kPuncts) {
      std::size_t len = std::string(op).size();
      if (content.compare(i, len, op) == 0) {
        out.tokens.push_back({TokKind::kPunct, op, line});
        i += len;
        matched = true;
        break;
      }
    }
    if (!matched) {
      out.tokens.push_back({TokKind::kPunct, std::string(1, c), line});
      ++i;
    }
  }
  return out;
}

}  // namespace ddanalyze
