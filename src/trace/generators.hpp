// Synthetic workload generators.
//
// Block-aware caching instances need both a request process and a block
// structure; generators here produce the request streams the paper's
// motivating scenarios describe (CDN chunks, storage-pool blocks, scans,
// phased working sets) plus the standard Zipf/uniform mixes used across
// the benchmark suite. All randomness is explicit (Xoshiro256pp by value)
// so traces are reproducible from seeds.
//
// Each *_trace function materializes the matching SyntheticSource
// (core/request_source.hpp), so a trace and a stream from the same seed
// are the same requests. Each throws std::invalid_argument when n_pages
// <= 0 or T < 0.
#pragma once

#include <vector>

#include "core/instance.hpp"
#include "util/rng.hpp"

namespace bac {

/// Requests drawn uniformly from [0, n_pages).
std::vector<PageId> uniform_trace(int n_pages, Time T, Xoshiro256pp rng);

/// Zipf(alpha) over pages 0..n-1 (page 0 most popular). alpha = 0 is
/// uniform; alpha around 0.8..1.2 matches CDN / storage popularity skews.
std::vector<PageId> zipf_trace(int n_pages, Time T, double alpha,
                               Xoshiro256pp rng);

/// Cyclic sequential scan 0,1,...,n-1,0,1,... — the classic LRU nemesis
/// when n > k and an easy win for any block-batching policy.
std::vector<PageId> scan_trace(int n_pages, Time T);

/// Phased working sets: the trace runs in phases of `phase_len` steps; each
/// phase draws uniformly from a random working set of `ws_size` pages
/// (clamped to n_pages). Also throws std::invalid_argument when phase_len
/// or ws_size is non-positive.
std::vector<PageId> phased_trace(int n_pages, Time T, Time phase_len,
                                 int ws_size, Xoshiro256pp rng);

/// Block-local process: with probability `stay` the next request stays in
/// the current block (uniform page within it), otherwise a new block is
/// drawn Zipf(alpha)-distributed. Models spatial locality over chunks.
std::vector<PageId> block_local_trace(const BlockMap& blocks, Time T,
                                      double stay, double alpha,
                                      Xoshiro256pp rng);

/// Block costs log-uniform in [1, aspect_ratio].
std::vector<Cost> log_uniform_costs(int n_blocks, double aspect_ratio,
                                    Xoshiro256pp rng);

/// Bundle a contiguous block structure with a request vector.
Instance make_instance(int n_pages, int block_size, int k,
                       std::vector<PageId> requests);

/// Same with per-block costs.
Instance make_weighted_instance(int n_pages, int block_size, int k,
                                std::vector<PageId> requests,
                                std::vector<Cost> block_costs);

}  // namespace bac
