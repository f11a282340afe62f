// A block-aware caching instance: block structure, request sequence, and
// cache size.
#pragma once

#include <vector>

#include "core/block_map.hpp"
#include "core/types.hpp"

namespace bac {

struct Instance {
  BlockMap blocks;
  std::vector<PageId> requests;  ///< requests[i] served at time t = i + 1
  int k = 0;                     ///< cache capacity in pages

  [[nodiscard]] int n_pages() const noexcept { return blocks.n_pages(); }
  [[nodiscard]] Time horizon() const noexcept {
    return static_cast<Time>(requests.size());
  }
  [[nodiscard]] PageId request_at(Time t) const {
    return requests[static_cast<std::size_t>(t - 1)];
  }

  /// Throws std::invalid_argument on malformed data (bad page ids, k <= 0).
  void validate() const;
};

}  // namespace bac
