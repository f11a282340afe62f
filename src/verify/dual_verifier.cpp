#include "verify/dual_verifier.hpp"

#include <algorithm>

namespace bac::verify {

DualAudit audit_dual_feasibility(const Instance& inst,
                                 const std::vector<DualEvent>& events) {
  DualAudit audit;
  const int n_blocks = inst.blocks.n_blocks();
  const Time T = inst.horizon();

  for (BlockId b = 0; b < n_blocks; ++b) {
    const auto pages = inst.blocks.pages_in(b);
    for (Time t = 0; t <= T; ++t) {
      double load = 0;
      for (const DualEvent& ev : events) {
        if (t > ev.tau) continue;  // future flush: coefficient 0
        const Time m = ev.max_flush[static_cast<std::size_t>(b)];
        if (t <= m) continue;  // dominated by S's own flush
        // Capped marginal: at an overflow event cap - f(S) == 1, so the
        // coefficient is 1 iff any page becomes newly missing.
        int gm = 0;
        for (PageId p : pages) {
          const Time r = ev.last_request[static_cast<std::size_t>(p)];
          if (r >= m && r < t) {
            gm = 1;
            break;
          }
        }
        if (gm > 0) load += ev.delta;
      }
      const double ratio = load / inst.blocks.cost(b);
      if (ratio > audit.max_load_ratio) {
        audit.max_load_ratio = ratio;
        audit.worst_block = b;
        audit.worst_time = t;
      }
    }
  }
  for (const DualEvent& ev : events) audit.objective += ev.delta;
  return audit;
}

}  // namespace bac::verify
