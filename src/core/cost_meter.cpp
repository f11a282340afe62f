#include "core/cost_meter.hpp"

#include <ostream>

namespace bac {

std::ostream& operator<<(std::ostream& os, const CostCounters& c) {
  const auto precision = os.precision(17);
  os << "{requests " << c.requests << ", hits " << c.hits << ", misses "
     << c.misses << ", eviction_cost " << c.eviction_cost << ", fetch_cost "
     << c.fetch_cost << ", classic_eviction_cost " << c.classic_eviction_cost
     << ", classic_fetch_cost " << c.classic_fetch_cost
     << ", evict_block_events " << c.evict_block_events
     << ", fetch_block_events " << c.fetch_block_events << ", evicted_pages "
     << c.evicted_pages << ", fetched_pages " << c.fetched_pages << '}';
  os.precision(precision);
  return os;
}

}  // namespace bac
