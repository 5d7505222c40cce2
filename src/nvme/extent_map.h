// Page-range map for the device write-cache model (DESIGN.md §13).
//
// Maps device-global pages to values, one std::map node per extent: a
// half-open range [lo, hi) whose pages all carry the same value. Every
// operation has per-page semantics — Find(p) after any sequence of
// operations returns exactly what a std::map<page, V> driven page by page
// would hold — but a 32-page write costs one node, not 32. Extents never
// overlap. Adjacent extents are not merged: values written by different
// commands differ anyway.
#ifndef DAREDEVIL_SRC_NVME_EXTENT_MAP_H_
#define DAREDEVIL_SRC_NVME_EXTENT_MAP_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <utility>

namespace daredevil {

template <typename V>
class ExtentMap {
 public:
  // Value of `page`, or null when the page is unmapped.
  const V* Find(uint64_t page) const {
    auto it = extents_.upper_bound(page);
    if (it == extents_.begin()) {
      return nullptr;
    }
    --it;
    return page < it->second.hi ? &it->second.value : nullptr;
  }

  // Maps every page of [lo, hi) to `value`, overwriting what was there.
  void Assign(uint64_t lo, uint64_t hi, const V& value) {
    if (lo >= hi) {
      return;
    }
    auto it = FirstOverlap(lo);
    if (it != extents_.end() && it->first == lo && it->second.hi == hi) {
      it->second.value = value;  // rewrite of the same range: no node churn
      return;
    }
    extents_.emplace_hint(Carve(lo, hi, it), lo, Extent{hi, value});
    pages_ += hi - lo;
  }

  // Maps the unmapped pages of [lo, hi) to `value`; mapped pages keep theirs
  // (a per-page emplace).
  void FillGaps(uint64_t lo, uint64_t hi, const V& value) {
    auto it = FirstOverlap(lo);
    uint64_t cur = lo;
    while (cur < hi) {
      const uint64_t gap_end =
          (it == extents_.end()) ? hi : std::min(hi, it->first);
      if (cur < gap_end) {
        extents_.emplace_hint(it, cur, Extent{gap_end, value});
        pages_ += gap_end - cur;
      }
      if (it == extents_.end()) {
        break;
      }
      cur = std::max(cur, it->second.hi);
      ++it;
    }
  }

  // Calls pred(lo, hi, value) on each mapped piece of [lo, hi), clipped to
  // the range, in ascending order, and unmaps the pieces it returns true
  // for. pred may modify other ExtentMaps, never this one.
  template <typename Pred>
  void EraseIf(uint64_t lo, uint64_t hi, Pred pred) {
    auto it = FirstOverlap(lo);
    while (it != extents_.end() && it->first < hi) {
      const uint64_t s = it->first;
      const uint64_t e = it->second.hi;
      const uint64_t a = std::max(s, lo);
      const uint64_t b = std::min(e, hi);
      if (!pred(a, b, std::as_const(it->second.value))) {
        ++it;
      } else if (a == s && b == e) {
        pages_ -= e - s;
        it = extents_.erase(it);
      } else {
        it = Carve(a, b, it);
      }
    }
  }

  // Calls fn(lo, hi, value) on every extent in ascending order; fn may
  // update the value in place.
  template <typename Fn>
  void ForEach(Fn fn) {
    for (auto& [lo, ext] : extents_) {
      fn(lo, ext.hi, ext.value);
    }
  }

  // Mapped pages (the size a per-page map would report).
  uint64_t pages() const { return pages_; }
  size_t extent_count() const { return extents_.size(); }
  void clear() {
    extents_.clear();
    pages_ = 0;
  }

 private:
  struct Extent {
    uint64_t hi;
    V value;
  };
  using Map = std::map<uint64_t, Extent>;

  // The extent containing `page`, else the first extent after it.
  typename Map::iterator FirstOverlap(uint64_t page) {
    auto it = extents_.upper_bound(page);
    if (it != extents_.begin()) {
      auto prev = std::prev(it);
      if (prev->second.hi > page) {
        return prev;
      }
    }
    return it;
  }

  // Unmaps [lo, hi), given `it` = FirstOverlap(lo). Partial extents at either
  // edge are trimmed in place (the right one re-keyed without reallocating).
  // Returns the insertion hint for an extent at lo.
  typename Map::iterator Carve(uint64_t lo, uint64_t hi,
                               typename Map::iterator it) {
    if (it != extents_.end() && it->first < lo) {
      const uint64_t e = it->second.hi;
      it->second.hi = lo;
      if (e > hi) {
        // [lo, hi) punches a hole in one extent: keep both sides.
        pages_ -= hi - lo;
        return extents_.emplace_hint(std::next(it), hi,
                                     Extent{e, it->second.value});
      }
      pages_ -= e - lo;
      ++it;
    }
    while (it != extents_.end() && it->first < hi) {
      const uint64_t e = it->second.hi;
      if (e > hi) {
        pages_ -= hi - it->first;
        auto node = extents_.extract(it++);
        node.key() = hi;
        return extents_.insert(it, std::move(node));
      }
      pages_ -= e - it->first;
      it = extents_.erase(it);
    }
    return it;
  }

  Map extents_;
  uint64_t pages_ = 0;
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_NVME_EXTENT_MAP_H_
