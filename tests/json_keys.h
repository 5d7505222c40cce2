// The keys of one JSON object, for tests that pin a document's shape.
#ifndef DAREDEVIL_TESTS_JSON_KEYS_H_
#define DAREDEVIL_TESTS_JSON_KEYS_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace daredevil {

// The keys, in order, of the object that opens at json[at] ('{'); nested
// values are skipped. `json` must be valid JSON (JsonLooksValid).
inline std::vector<std::string> ObjectKeys(std::string_view json,
                                           size_t at = 0) {
  std::vector<std::string> keys;
  int depth = 0;
  bool expect_key = false;
  for (size_t i = at; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"') {
      size_t end = i + 1;
      while (json[end] != '"') {
        end += json[end] == '\\' ? 2 : 1;
      }
      if (expect_key) {
        keys.emplace_back(json.substr(i + 1, end - i - 1));
        expect_key = false;
      }
      i = end;
    } else if (c == '{' || c == '[') {
      ++depth;
      expect_key = depth == 1;
    } else if (c == '}' || c == ']') {
      if (--depth == 0) {
        break;
      }
    } else if (c == ',' && depth == 1) {
      expect_key = true;
    }
  }
  return keys;
}

}  // namespace daredevil

#endif  // DAREDEVIL_TESTS_JSON_KEYS_H_
