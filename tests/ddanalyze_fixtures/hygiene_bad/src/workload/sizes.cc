// BAD: bare asserts and raw page-size literals under src/.
#include <assert.h>  // flagged: bare-assert
#include <cassert>   // flagged: bare-assert
#include <cstdint>

#define PAGE_BYTES 4096                    // flagged: page-literal
#define CHECK_POSITIVE(x) assert((x) > 0)  // flagged: bare-assert

uint64_t Bytes(uint64_t pages) {
  assert(pages > 0);              // flagged: bare assert()
  uint64_t bytes = pages * 4096;  // flagged: raw 4096
  // Flagged twice more: a waiver without a reason is not a waiver.
  bytes += 4096;  // ddanalyze: units-ok
  bytes += 4096;  // ddanalyze: units-ok()
  return bytes;
}
