// GOOD: the canonical guard, checked and derived sizes, look-alikes of the
// page literal, and waived sites.
#ifndef DAREDEVIL_SRC_WORKLOAD_SIZES_H_
#define DAREDEVIL_SRC_WORKLOAD_SIZES_H_

#include <cstdint>

#define DD_CHECK(cond) (void)(cond)

inline uint64_t Bytes(uint64_t pages, uint64_t page_bytes) {
  static_assert(sizeof(uint64_t) == 8, "static_assert is not a bare assert");
  DD_CHECK(pages > 0);
  return pages * page_bytes;
}

// A 4096 in a comment, a string or a longer literal is not the page size.
inline const char* Label() { return "4096 bytes"; }
inline uint64_t Mask() { return 0x4096 + 40960 + 4096u; }

inline int MaxOutstanding() {
  return 4096;  // ddanalyze: units-ok(request count, not bytes)
}

inline int MemtableEntries() {
  return 4096;  // ddanalyze: units-ok(entry count, not bytes)
}

inline void Legacy(bool ok) {
  assert(ok);  // ddanalyze: assert-ok(vendored helper keeps its own check)
}

#endif  // DAREDEVIL_SRC_WORKLOAD_SIZES_H_
