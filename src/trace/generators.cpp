#include "trace/generators.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/zipf_sampler.hpp"

namespace bac {

std::vector<PageId> uniform_trace(int n_pages, Time T, Xoshiro256pp rng) {
  if (n_pages <= 0) throw std::invalid_argument("uniform_trace: n_pages");
  std::vector<PageId> out(static_cast<std::size_t>(T));
  for (auto& p : out)
    p = static_cast<PageId>(rng.below(static_cast<std::uint64_t>(n_pages)));
  return out;
}

std::vector<PageId> zipf_trace(int n_pages, Time T, double alpha,
                               Xoshiro256pp rng) {
  if (n_pages <= 0) throw std::invalid_argument("zipf_trace: n_pages");
  const ZipfSampler zipf(n_pages, alpha);
  std::vector<PageId> out(static_cast<std::size_t>(T));
  for (auto& p : out) p = zipf.draw(rng);
  return out;
}

std::vector<PageId> scan_trace(int n_pages, Time T) {
  std::vector<PageId> out(static_cast<std::size_t>(T));
  for (Time t = 0; t < T; ++t)
    out[static_cast<std::size_t>(t)] = static_cast<PageId>(t % n_pages);
  return out;
}

std::vector<PageId> phased_trace(int n_pages, Time T, Time phase_len,
                                 int ws_size, Xoshiro256pp rng) {
  // Regression guards: phase_len <= 0 used to hit t % phase_len (integer
  // division by zero, UB) and ws_size <= 0 indexed an empty working set.
  if (n_pages <= 0) throw std::invalid_argument("phased_trace: n_pages");
  if (phase_len <= 0)
    throw std::invalid_argument("phased_trace: phase_len must be positive");
  if (ws_size <= 0)
    throw std::invalid_argument("phased_trace: ws_size must be positive");
  if (ws_size > n_pages) ws_size = n_pages;
  std::vector<PageId> universe(static_cast<std::size_t>(n_pages));
  for (int i = 0; i < n_pages; ++i) universe[static_cast<std::size_t>(i)] = i;

  std::vector<PageId> out;
  out.reserve(static_cast<std::size_t>(T));
  std::vector<PageId> ws;
  for (Time t = 0; t < T; ++t) {
    if (t % phase_len == 0) {
      // Draw a fresh working set (partial Fisher-Yates).
      for (int i = 0; i < ws_size; ++i) {
        const auto j = static_cast<std::size_t>(
            rng.range(i, n_pages - 1));
        std::swap(universe[static_cast<std::size_t>(i)], universe[j]);
      }
      ws.assign(universe.begin(), universe.begin() + ws_size);
    }
    out.push_back(ws[static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(ws_size)))]);
  }
  return out;
}

std::vector<PageId> block_local_trace(const BlockMap& blocks, Time T,
                                      double stay, double alpha,
                                      Xoshiro256pp rng) {
  const ZipfSampler zipf(blocks.n_blocks(), alpha);
  std::vector<PageId> out;
  out.reserve(static_cast<std::size_t>(T));
  BlockId current = zipf.draw(rng);
  for (Time t = 0; t < T; ++t) {
    if (!rng.bernoulli(stay)) current = zipf.draw(rng);
    const auto pages = blocks.pages_in(current);
    out.push_back(pages[static_cast<std::size_t>(
        rng.below(pages.size()))]);
  }
  return out;
}

std::vector<Cost> log_uniform_costs(int n_blocks, double aspect_ratio,
                                    Xoshiro256pp rng) {
  if (aspect_ratio < 1.0)
    throw std::invalid_argument("log_uniform_costs: aspect_ratio < 1");
  std::vector<Cost> out(static_cast<std::size_t>(n_blocks));
  const double log_delta = std::log(aspect_ratio);
  for (auto& c : out) c = std::exp(rng.uniform() * log_delta);
  return out;
}

Instance make_instance(int n_pages, int block_size, int k,
                       std::vector<PageId> requests) {
  Instance inst{BlockMap::contiguous(n_pages, block_size), std::move(requests),
                k};
  inst.validate();
  return inst;
}

Instance make_weighted_instance(int n_pages, int block_size, int k,
                                std::vector<PageId> requests,
                                std::vector<Cost> block_costs) {
  Instance inst{
      BlockMap::contiguous_weighted(n_pages, block_size, std::move(block_costs)),
      std::move(requests), k};
  inst.validate();
  return inst;
}

}  // namespace bac
