#include "trace/generators.hpp"

#include <cmath>
#include <stdexcept>

#include "core/request_source.hpp"

namespace bac {

namespace {

/// The page-level workloads draw from [0, n_pages) whatever the blocks,
/// so they drain over one page per block and k = 1.
Instance page_header(int n_pages) {
  return Instance{BlockMap::contiguous(n_pages, 1), {}, 1};
}

}  // namespace

std::vector<PageId> uniform_trace(int n_pages, Time T, Xoshiro256pp rng) {
  return materialize(*SyntheticSource::uniform(page_header(n_pages), T, rng))
      .requests;
}

std::vector<PageId> zipf_trace(int n_pages, Time T, double alpha,
                               Xoshiro256pp rng) {
  return materialize(
             *SyntheticSource::zipf(page_header(n_pages), T, alpha, rng))
      .requests;
}

std::vector<PageId> scan_trace(int n_pages, Time T) {
  return materialize(*SyntheticSource::scan(page_header(n_pages), T))
      .requests;
}

std::vector<PageId> phased_trace(int n_pages, Time T, Time phase_len,
                                 int ws_size, Xoshiro256pp rng) {
  return materialize(*SyntheticSource::phased(page_header(n_pages), T,
                                              phase_len, ws_size, rng))
      .requests;
}

std::vector<PageId> block_local_trace(const BlockMap& blocks, Time T,
                                      double stay, double alpha,
                                      Xoshiro256pp rng) {
  return materialize(*SyntheticSource::block_local(
                         Instance{blocks, {}, blocks.beta()}, T, stay, alpha,
                         rng))
      .requests;
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
