// Brute-force dual-feasibility verification for Algorithm 1.
//
// The k-competitiveness proof (Lemma 3.4) hinges on *every* dual
// constraint sum_u f_u((B,t)|S_u) * y_u <= c_B holding — including
// constraints at flush times the algorithm never tracked. The algorithm
// keeps loads only for the current alive times of each block's cached
// pages and argues every other time is dominated; this verifier re-derives
// every load from a complete event log and checks the constraints
// exhaustively, so the domination argument is machine-checked on every
// test instance.
// (This harness caught a real bookkeeping bug during development: the
// alive time induced by the kept page of a flushed block was dropped.)
#pragma once

#include <vector>

#include "core/instance.hpp"

namespace bac {

/// One dual increase event: y_{S}^{tau} += delta, with the state needed to
/// recompute any constraint coefficient f_tau((B,t)|S).
struct DualEvent {
  Time tau = 0;
  double delta = 0;
  std::vector<Time> max_flush;     ///< per block, S's max flush time
  std::vector<Time> last_request;  ///< per page, r(p, tau)
};

struct DualAudit {
  double max_load_ratio = 0;  ///< max over (B,t) of load / c_B
  BlockId worst_block = -1;
  Time worst_time = -1;
  double objective = 0;  ///< sum of recorded deltas times their rhs weight
  [[nodiscard]] bool feasible(double tol = 1e-9) const {
    return max_load_ratio <= 1.0 + tol;
  }
};

/// Recompute the dual load of every flush (B, t), t in [0, horizon], from
/// the event log and report the worst constraint. O(|events| * n * T) —
/// intended for tests and small experiment audits.
DualAudit audit_dual_feasibility(const Instance& inst,
                                 const std::vector<DualEvent>& events);

}  // namespace bac
