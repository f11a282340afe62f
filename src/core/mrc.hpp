// Single-pass LRU miss-ratio-vs-k curve (Mattson stack distances).
//
// Feeding every request of a trace yields, in one pass and O(n_pages)
// memory, the stack-distance histogram from which the LRU miss ratio at
// *every* cache size k follows: a request hits a size-k LRU cache iff its
// stack position (1 + #distinct pages touched since its previous access)
// is at most k. Distances are counted with a Fenwick tree over access
// positions; positions are periodically compacted so memory stays bounded
// by the page universe, never by the trace length — this is what lets the
// streaming simulator emit miss-ratio curves for traces that are never
// materialized. It is the library's only stack-distance engine; the tests
// check it against a brute-force list-LRU stack.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace bac {

class MissRatioCurve {
 public:
  explicit MissRatioCurve(int n_pages);

  /// Record the next request of the stream.
  void add(PageId p);

  /// requests() and compulsory_misses() stay for the tests, which check
  /// the curve's totals against a brute-force replay with them.
  [[nodiscard]] long long requests() const noexcept { return total_; }
  /// Requests to never-before-seen pages (infinite stack distance).
  [[nodiscard]] long long compulsory_misses() const noexcept {
    return compulsory_;
  }
  /// LRU miss ratio for a cache of k pages (1.0 before any request).
  [[nodiscard]] double miss_ratio(int k) const;
  /// Stack-position histogram: hist[d] = #requests at stack position d+1.
  [[nodiscard]] const std::vector<long long>& histogram() const noexcept {
    return hist_;
  }

 private:
  int n_pages_;
  std::vector<std::int64_t> last_pos_;   // per page: current position, -1 unseen
  std::vector<int> fenwick_;             // 1 at each page's position
  std::int64_t next_pos_ = 0;
  int seen_ = 0;                         // distinct pages observed
  std::size_t capacity_;                 // fenwick slots before compaction
  std::vector<long long> hist_;          // stack positions 1..n (0-indexed)
  long long total_ = 0;
  long long compulsory_ = 0;

  void fenwick_add(std::int64_t pos, int delta);
  [[nodiscard]] int fenwick_suffix(std::int64_t pos) const;  // sum > pos
  void compact();
};

}  // namespace bac
