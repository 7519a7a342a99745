// A count per 64-bit key, stored as disjoint [first, end) ranges: keys outside
// every range count 0, and no stored range counts 0. The mirror controller
// keeps its replica state here (stale physical sectors set to 1 or 0, in-flight
// logical writes counted up and down), so a run of sectors costs one node.
#ifndef MIMDRAID_SRC_UTIL_EXTENT_MAP_H_
#define MIMDRAID_SRC_UTIL_EXTENT_MAP_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>

#include "src/util/check.h"

namespace mimdraid {

class ExtentMap {
 public:
  // Adds `delta` to every key in [lba, lba + n); no count may go negative.
  void Add(uint64_t lba, uint64_t n, int delta) {
    Apply(lba, n, [delta](int& count) {
      count += delta;
      MIMDRAID_CHECK_GE(count, 0);
    });
  }
  // Sets every key in [lba, lba + n) to `count`.
  void Set(uint64_t lba, uint64_t n, int count) {
    Apply(lba, n, [count](int& c) { c = count; });
  }
  // Length of the run of zero counts starting at `lba`, capped at `n`.
  uint64_t ZeroPrefix(uint64_t lba, uint64_t n) const {
    auto next = ranges_.upper_bound(lba);
    if (next != ranges_.begin() && std::prev(next)->second.end > lba) {
      return 0;
    }
    return next == ranges_.end() ? n : std::min(n, next->first - lba);
  }
  // Number of keys whose count is not zero.
  uint64_t size() const {
    uint64_t keys = 0;
    for (const auto& [first, range] : ranges_) {
      keys += range.end - first;
    }
    return keys;
  }

 private:
  struct Range {
    uint64_t end;
    int count;
  };

  // Splits the pieces of [lba, lba + n) off their neighbours, runs `fn` on
  // each piece's count (gaps as count 0) and drops pieces left at zero.
  template <typename Fn>
  void Apply(uint64_t lba, uint64_t n, Fn fn) {
    const uint64_t end = lba + n;
    for (uint64_t at : {lba, end}) {
      auto it = ranges_.upper_bound(at);
      if (it != ranges_.begin() && std::prev(it)->second.end > at &&
          std::prev(it)->first < at) {
        --it;
        ranges_.emplace_hint(std::next(it), at, it->second);
        it->second.end = at;
      }
    }
    auto it = ranges_.lower_bound(lba);
    for (uint64_t at = lba; at < end;) {
      if (it == ranges_.end() || it->first > at) {  // a gap: count 0
        const uint64_t gap_end =
            it == ranges_.end() ? end : std::min(end, it->first);
        it = ranges_.emplace_hint(it, at, Range{gap_end, 0});
      }
      fn(it->second.count);
      at = it->second.end;
      it = it->second.count == 0 ? ranges_.erase(it) : std::next(it);
    }
  }

  std::map<uint64_t, Range> ranges_;  // keyed by each range's first key
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_UTIL_EXTENT_MAP_H_
