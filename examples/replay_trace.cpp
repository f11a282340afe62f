// Streaming trace replay, end to end:
//   1. synthesize a Zipf workload and archive it as a .bact binary trace
//      (streamed through BactWriter — the trace is never held in memory),
//   2. replay it through LRU and BlockLRU with the streaming simulator,
//   3. print costs, per-step cost percentiles, the single-pass LRU
//      miss-ratio curve, and replay throughput.
//
// Usage: replay_trace [T]      (default 1,000,000 requests)
//
// The same flow converts real traces: stream a CSV key trace with
// CsvSource or an archived text instance with TextTraceSource, and feed
// either to the same simulate() call.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "algs/policies/classical.hpp"
#include "core/request_source.hpp"
#include "core/simulator.hpp"
#include "trace/bact.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace bac;
  const long long T = argc > 1 ? std::atoll(argv[1]) : 1'000'000;
  const int n = 1 << 14, beta = 16, k = 1 << 10;

  const std::string path =
      (std::filesystem::temp_directory_path() / "replay_demo.bact").string();
  {
    // Stream the workload straight to disk; O(n) memory, any T.
    auto workload =
        SyntheticSource::zipf(Instance{BlockMap::contiguous(n, beta), {}, k},
                              T, 0.9, Xoshiro256pp(/*seed=*/42));
    std::ofstream out(path, std::ios::binary);
    BactWriter writer(out, workload->context().blocks, k, T);
    PageId p;
    while (workload->next(p)) writer.add(p);
    writer.finish();
  }
  std::printf("archived %lld Zipf(0.9) requests to %s (%.1f MB)\n", T,
              path.c_str(),
              static_cast<double>(std::filesystem::file_size(path)) / 1e6);

  SimOptions options;
  options.mrc_ks = {k / 4, k / 2, k, 2 * k};
  for (const bool block_aware : {false, true}) {
    BactSource source(path);
    LruPolicy lru;
    BlockLruPolicy block_lru(/*prefetch=*/false);
    OnlinePolicy& policy =
        block_aware ? static_cast<OnlinePolicy&>(block_lru) : lru;

    Stopwatch clock;
    const RunResult r = simulate(source, policy, options);
    const double secs = clock.seconds();
    std::printf(
        "\n%-10s cost=%.0f (evict %.0f + fetch %.0f), misses=%lld\n",
        policy.name().c_str(), r.eviction_cost + r.fetch_cost,
        r.eviction_cost, r.fetch_cost, r.misses);
    std::printf("  step cost p50/p90/p99/max = %.2f / %.2f / %.2f / %.2f\n",
                r.step_cost_p50, r.step_cost_p90, r.step_cost_p99,
                r.step_cost_max);
    std::printf("  LRU miss-ratio curve:");
    for (const auto& [curve_k, miss] : r.miss_curve)
      std::printf("  k=%d:%.3f", curve_k, miss);
    std::printf("\n  replayed %lld requests in %.2fs (%.0f requests/sec)\n",
                r.requests, secs, static_cast<double>(r.requests) / secs);
  }

  std::filesystem::remove(path);
  return 0;
}
