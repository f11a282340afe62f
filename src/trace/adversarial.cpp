#include "trace/adversarial.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/step_kernel.hpp"

namespace bac {

namespace {

/// Page layout shared by the Claim 2.1 builders: 2*beta^2 pages, P-blocks
/// are 0..beta-1, Q-blocks are beta..2*beta-1, block j holds pages
/// j*beta .. j*beta+beta-1 (contiguous), all costs 1.
PageId p_page(int beta, int block, int index) { return static_cast<PageId>(block * beta + index); }
PageId q_page(int beta, int block, int index) {
  return static_cast<PageId>((beta + block) * beta + index);
}

}  // namespace

BuiltAdversarial claim21_fetch_cheap(int beta, int repeats) {
  if (beta < 2) throw std::invalid_argument("claim21: beta >= 2 required");
  if (repeats < 1) throw std::invalid_argument("claim21: repeats >= 1");
  const int n = 2 * beta * beta;
  const int k = beta * beta;

  std::vector<PageId> req;
  Schedule sched;
  auto step = [&](PageId p) {
    req.push_back(p);
    sched.steps.emplace_back();
  };

  // Warm-up: request all P pages; intended schedule fetches each P block
  // in its entirety at the block's first request.
  for (int j = 0; j < beta; ++j) {
    for (int l = 0; l < beta; ++l) {
      step(p_page(beta, j, l));
      if (l == 0)
        for (int l2 = 0; l2 < beta; ++l2)
          sched.steps.back().fetches.push_back(p_page(beta, j, l2));
    }
  }

  // Rounds i = 1..beta. At the first request of round i the intended
  // schedule evicts page index (beta - i) of each P-block and fetches
  // Q-block i-1 in its entirety.
  for (int i = 1; i <= beta; ++i) {
    for (int rep = 0; rep < repeats; ++rep) {
      bool first_of_round = (rep == 0);
      for (int j = 0; j < beta; ++j) {
        for (int l = 0; l < beta - i; ++l) {
          step(p_page(beta, j, l));
          if (first_of_round) {
            for (int j2 = 0; j2 < beta; ++j2)
              sched.steps.back().evictions.push_back(
                  p_page(beta, j2, beta - i));
            for (int l2 = 0; l2 < beta; ++l2)
              sched.steps.back().fetches.push_back(q_page(beta, i - 1, l2));
            first_of_round = false;
          }
        }
      }
      for (int j = 0; j < i; ++j) {
        for (int l = 0; l < beta; ++l) {
          step(q_page(beta, j, l));
          if (first_of_round) {  // round i == beta has no P requests
            for (int j2 = 0; j2 < beta; ++j2)
              sched.steps.back().evictions.push_back(
                  p_page(beta, j2, beta - i));
            for (int l2 = 0; l2 < beta; ++l2)
              sched.steps.back().fetches.push_back(q_page(beta, i - 1, l2));
            first_of_round = false;
          }
        }
      }
    }
  }

  Instance inst{BlockMap::contiguous(n, beta), std::move(req), k};
  inst.validate();
  return {std::move(inst), std::move(sched)};
}

BuiltAdversarial claim21_evict_cheap(int beta, int repeats) {
  if (beta < 2) throw std::invalid_argument("claim21: beta >= 2 required");
  if (repeats < 1) throw std::invalid_argument("claim21: repeats >= 1");
  const int n = 2 * beta * beta;
  const int k = beta * beta;

  std::vector<PageId> req;
  Schedule sched;
  auto step = [&](PageId p) {
    req.push_back(p);
    sched.steps.emplace_back();
  };

  // Round i = 1..beta requests the last i pages of each P-block and all of
  // Q-blocks i..beta-1. Intended schedule: in round 1 fetch lazily (P pages
  // singly, Q blocks in their entirety at first touch); entering round
  // i >= 2, fetch page index (beta - i) of each P-block and evict Q-block
  // i-1 in its entirety.
  for (int i = 1; i <= beta; ++i) {
    for (int rep = 0; rep < repeats; ++rep) {
      bool first_of_round = (rep == 0 && i >= 2);
      for (int j = 0; j < beta; ++j) {
        for (int l = beta - i; l < beta; ++l) {
          step(p_page(beta, j, l));
          if (i == 1 && rep == 0) {
            // lazy single-page fetch on first touch
            sched.steps.back().fetches.push_back(p_page(beta, j, l));
          } else if (first_of_round) {
            for (int j2 = 0; j2 < beta; ++j2)
              sched.steps.back().fetches.push_back(
                  p_page(beta, j2, beta - i));
            for (int l2 = 0; l2 < beta; ++l2)
              sched.steps.back().evictions.push_back(q_page(beta, i - 1, l2));
            first_of_round = false;
          }
        }
      }
      for (int j = i; j < beta; ++j) {
        for (int l = 0; l < beta; ++l) {
          step(q_page(beta, j, l));
          if (i == 1 && rep == 0 && l == 0) {
            for (int l2 = 0; l2 < beta; ++l2)
              sched.steps.back().fetches.push_back(q_page(beta, j, l2));
          }
        }
      }
    }
  }

  Instance inst{BlockMap::contiguous(n, beta), std::move(req), k};
  inst.validate();
  return {std::move(inst), std::move(sched)};
}

Instance gap_instance(int beta, int rounds) {
  if (beta < 2) throw std::invalid_argument("gap_instance: beta >= 2");
  const int n = 2 * beta;
  const int k = 2 * beta - 1;
  std::vector<PageId> req;
  req.reserve(static_cast<std::size_t>(rounds) * static_cast<std::size_t>(n));
  for (int r = 0; r < rounds; ++r)
    for (PageId p = 0; p < n; ++p) req.push_back(p);
  Instance inst{BlockMap::contiguous(n, beta), std::move(req), k};
  inst.validate();
  return inst;
}

Instance cyclic_nemesis(int k, int block_size, Time T) {
  const int n = k + 1;
  std::vector<PageId> req(static_cast<std::size_t>(T));
  for (Time t = 0; t < T; ++t)
    req[static_cast<std::size_t>(t)] = static_cast<PageId>(t % n);
  Instance inst{BlockMap::contiguous(n, block_size), std::move(req), k};
  inst.validate();
  return inst;
}

AdversaryResult run_adaptive_adversary(OnlinePolicy& policy, int k,
                                       int block_size, int h, Time T,
                                       std::uint64_t seed) {
  if (h < 1 || h > k) throw std::invalid_argument("adversary: need 1<=h<=k");
  const int n = k + (block_size - 1) * (h - 1) + 1;
  BlockMap blocks = BlockMap::contiguous(n, block_size);

  // Drive the policy step by step; the request stream is chosen online.
  // The shell is validated before the policy serves a step over it.
  const Instance shell{blocks, {}, k};
  shell.validate();
  StepKernel kernel(shell, policy, seed);
  const CacheSet& cache = kernel.cache();

  std::vector<PageId> req;
  req.reserve(static_cast<std::size_t>(T));
  for (Time t = 1; t <= T; ++t) {
    // Pick the block with the most absent pages; request its first absent
    // page. The policy's cache has at most k < n pages, so one exists.
    int best_absent = -1;
    PageId choice = -1;
    for (BlockId b = 0; b < blocks.n_blocks(); ++b) {
      int absent = 0;
      PageId first_absent = -1;
      for (PageId p : blocks.pages_in(b)) {
        if (!cache.contains(p)) {
          ++absent;
          if (first_absent < 0) first_absent = p;
        }
      }
      if (absent > best_absent) {
        best_absent = absent;
        choice = first_absent;
      }
    }
    req.push_back(choice);
    kernel.serve(choice);
  }

  const CostCounters costs = kernel.counters();
  return {Instance{std::move(blocks), std::move(req), k}, costs.fetch_cost,
          costs.eviction_cost};
}

double bgm21_lower_bound(int k, int block_size, int h) {
  return (static_cast<double>(k) +
          static_cast<double>(block_size - 1) * static_cast<double>(h - 1)) /
         static_cast<double>(k - h + 1);
}

}  // namespace bac
