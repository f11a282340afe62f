// PERF: microbenchmarks of the library's hot paths — simulator throughput
// per policy, the sharded server's batch path, request-source decode,
// f_tau marginal evaluation, the fractional algorithms' per-step cost,
// and the exact-OPT solvers.
// Unlike the experiment benches this one measures wall time, so it runs
// each case --trials times (default 3) and reports the fastest run plus
// items/second; --json writes the same numbers to BENCH_perf.json, one
// snapshot of the perf trajectory's machine-readable trail.
#include "bench_common.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>

#include "algs/policies/classical.hpp"
#include "algs/policies/modern.hpp"
#include "algs/det_online.hpp"
#include "algs/fractional.hpp"
#include "algs/opt.hpp"
#include "algs/policies/fractional_paging.hpp"
#include "algs/rounding.hpp"
#include "algs/threshold_bicriteria.hpp"
#include "core/request_source.hpp"
#include "core/simulator.hpp"
#include "obs/metrics.hpp"
#include "server/concurrent_cache.hpp"
#include "submodular/flush_coverage.hpp"
#include "trace/csv.hpp"
#include "trace/generators.hpp"
#include "util/timer.hpp"

namespace bac {
namespace {

Instance bench_instance(int n, int beta, int k, Time T) {
  BlockMap blocks = BlockMap::contiguous(n, beta);
  auto req =
      block_local_trace(blocks, T, 0.75, 0.9, Xoshiro256pp(bench::seed_of(9)));
  return Instance{std::move(blocks), std::move(req), k};
}

/// Column set matching run_case's .add() order below.
Table perf_table() {
  return Table({"case", "n", "k", "best ms", "Mitems/s", "checksum"});
}

/// Run `body` (which processes `items` items and returns a cost-like
/// checksum) --trials times; table + record the fastest run.
template <typename Body>
void run_case(Table& table, const std::string& name, const Instance& inst,
              long long items, Body&& body) {
  const int trials = bench::trials_or(3);
  double best_ms = 0.0;
  double checksum = 0.0;
  for (int i = 0; i < trials; ++i) {
    Stopwatch sw;
    checksum = body();
    const double ms = sw.millis();
    if (i == 0 || ms < best_ms) best_ms = ms;
  }
  const double per_sec =
      best_ms > 0 ? static_cast<double>(items) / (best_ms / 1e3) : 0.0;
  bench::record(bench::shape_of(inst)
                    .named(name)
                    .costing(checksum)
                    .timing(best_ms)
                    .with("items", static_cast<double>(items))
                    .with("items_per_sec", per_sec));
  table.row()
      .add(name)
      .add(inst.n_pages())
      .add(inst.k)
      .add(best_ms, 2)
      .add(per_sec / 1e6, 2)
      .add(checksum, 1);
}

void simulate_case(Table& table, const std::string& name, int n, Time T,
                   OnlinePolicy& policy) {
  const Instance inst = bench_instance(n, 8, n / 4, T);
  // Pure simulator + policy throughput: no per-step sketches, schedules,
  // or curves — the lane the flat eviction indexes and batched streaming
  // are built for. The checksum (total eviction cost) pins behaviour, so
  // --compare flags any perf change that also changes results.
  SimOptions options;
  options.record_sketch = false;
  run_case(table, name + "/" + std::to_string(n), inst, inst.horizon(), [&] {
    return simulate(inst, policy, options).eviction_cost;
  });
}

template <typename Policy>
void simulate_case(Table& table, const std::string& name, int n, Time T) {
  Policy policy;
  simulate_case(table, name, n, T, policy);
}

/// The enabled-path overhead probe: the same LRU workload as
/// simulate/LRU, but with the step-cost histogram and a metrics fold
/// active. Its checksum must equal the plain case's — observability is
/// read-only — and the Mitems/s delta between the two rows IS the
/// enabled-path cost, tracked run over run by --compare.
void simulate_obs_case(Table& table, int n, Time T) {
  const Instance inst = bench_instance(n, 8, n / 4, T);
  LruPolicy policy;
  obs::MetricRegistry registry;
  SimOptions options;
  options.record_sketch = true;
  options.metrics = &registry;
  run_case(table, "simulate/LRU-obs/" + std::to_string(n), inst,
           inst.horizon(),
           [&] { return simulate(inst, policy, options).eviction_cost; });
}

/// The simulate/LRU/1024 workload served through the sharded front-end:
/// a ConcurrentCache of max_shards() LRU shards, one client, 512-request
/// get_batch() calls. Beside simulate/LRU's row it shows what the server
/// layer (routing, shard locks, per-request latency) costs per request.
/// The checksum is the total cost, which the per-shard request order
/// alone fixes.
void serve_case(Table& table, int n, Time T) {
  const Instance inst = bench_instance(n, 8, n / 4, T);
  LruPolicy policy;
  const int shards = server::ConcurrentCache::max_shards(inst);
  const TickClock calibrate;  // the first one spins ~1 ms: keep it untimed
  run_case(table, "serve/LRU/" + std::to_string(n), inst, inst.horizon(),
           [&] {
             constexpr int kBatch = 512;
             server::ConcurrentCache cache(inst, policy, shards);
             const int horizon = static_cast<int>(inst.horizon());
             for (int i = 0; i < horizon; i += kBatch)
               cache.get_batch(inst.requests.data() + i,
                               std::min(kBatch, horizon - i));
             return cache.stats().total_cost();
           });
}

void simulator_throughput() {
  Table table = perf_table();
  // Light (index-bound) policies get long traces for stable timing. The
  // LP-based randomized policy costs tens of microseconds per request, and
  // more as T grows: Algorithm 2's flush history grows ~0.8 entries per
  // request and the separation oracle still walks its non-dead part each
  // call. So it runs at T = 2k and at T = 20k, where that growth shows.
  constexpr Time kLong = 200'000;
  simulate_case<LruPolicy>(table, "simulate/LRU", 256, kLong);
  simulate_case<LruPolicy>(table, "simulate/LRU", 1024, kLong);
  simulate_obs_case(table, 1024, kLong);
  serve_case(table, 1024, kLong);
  simulate_case<FifoPolicy>(table, "simulate/FIFO", 1024, kLong);
  simulate_case<LfuPolicy>(table, "simulate/LFU", 1024, kLong);
  simulate_case<GreedyDualPolicy>(table, "simulate/GreedyDual", 1024, kLong);
  simulate_case<BeladyPolicy>(table, "simulate/Belady", 1024, kLong);
  simulate_case<S3FifoPolicy>(table, "simulate/S3FIFO", 1024, kLong);
  simulate_case<SievePolicy>(table, "simulate/SIEVE", 1024, kLong);
  simulate_case<ArcPolicy>(table, "simulate/ARC", 1024, kLong);
  BlockLruPolicy block_lru(false);
  simulate_case(table, "simulate/BlockLRU", 256, kLong, block_lru);
  simulate_case<BlockS3FifoPolicy>(table, "simulate/BlockS3FIFO", 256, kLong);
  simulate_case<BlockSievePolicy>(table, "simulate/BlockSIEVE", 256, kLong);
  // Algorithm 1 scans every block on each overflow: 512 blocks at 4096.
  simulate_case<DetOnlineBlockAware>(table, "simulate/BA-Det", 256, 20'000);
  simulate_case<DetOnlineBlockAware>(table, "simulate/BA-Det", 1024, 20'000);
  simulate_case<DetOnlineBlockAware>(table, "simulate/BA-Det", 4096, 20'000);
  simulate_case<RandomizedBlockAware>(table, "simulate/BA-Rand", 256, 2'000);
  simulate_case<RandomizedBlockAware>(table, "simulate/BA-Rand-T20k", 256,
                                      20'000);
  // Theorem 4.1's rounding over the fractional weighted-paging substrate
  // (half-size cache h = 32).
  ThresholdBicriteriaPolicy bicrit(ThresholdBicriteriaPolicy::Mode::Fetching);
  simulate_case(table, "simulate/BA-Bicrit-fetch", 256, 20'000, bicrit);
  bench::emit(table, "bench_perf", "PERF simulator throughput per policy",
              "simulate");
}

void ftau_marginals() {
  Table table = perf_table();
  for (int n : {256, 1024}) {
    const Instance inst = bench_instance(n, 8, n / 4, 20'000);
    run_case(table, "ftau/" + std::to_string(n), inst, inst.horizon(), [&] {
      FlushCoverage cov(inst.blocks, inst.k);
      FlushSet S(cov);
      long long sink = 0;
      for (Time t = 1; t <= inst.horizon(); ++t) {
        FlushSet* sets[] = {&S};
        const PageId p = inst.request_at(t);
        cov.advance(p, t, sets);
        const BlockId b = inst.blocks.block_of(p);
        for (Time at : cov.alive_times(b)) sink += S.f_marginal(b, at);
      }
      return static_cast<double>(sink);
    });
  }
  bench::emit(table, "bench_perf",
              "PERF incremental f_tau maintenance + marginals", "ftau");
}

void fractional_step() {
  Table table = perf_table();
  for (int k : {16, 32}) {
    const Instance inst = bench_instance(4 * k, 4, k, 2'000);
    run_case(table, "fractional/k" + std::to_string(k), inst, inst.horizon(),
             [&] {
               FractionalBlockAware alg(inst.blocks, inst.k);
               for (Time t = 1; t <= inst.horizon(); ++t)
                 alg.step(t, inst.request_at(t));
               return alg.fractional_cost();
             });
  }
  bench::emit(table, "bench_perf",
              "PERF fractional algorithm per-step cost", "fractional");
}

/// Theorem 4.1's fractional substrate alone: FractionalWeightedPaging::step
/// at the policy's half-size cache h = 32, over simulate/BA-Bicrit-fetch/256's
/// trace. With unit costs each bisection halving is decided against one
/// exact growth threshold; costs 2^(b mod 4) keep the evaluated mass. The
/// checksum, block_fetch_cost(), moves if any x moves in its last bit.
void fractional_paging_step() {
  Table table = perf_table();
  const Instance unit = bench_instance(256, 8, 32, 20'000);
  std::vector<Cost> costs(static_cast<std::size_t>(unit.blocks.n_blocks()));
  for (BlockId b = 0; b < unit.blocks.n_blocks(); ++b)
    costs[static_cast<std::size_t>(b)] = std::ldexp(1.0, b % 4);
  const Instance dyadic{BlockMap::contiguous_weighted(256, 8, std::move(costs)),
                        unit.requests, unit.k};
  for (const auto& [label, inst] : {std::pair{"unit", &unit},
                                    std::pair{"dyadic", &dyadic}}) {
    run_case(table, std::string("frac_paging/") + label + "/256", *inst,
             inst->horizon(), [&] {
               FractionalWeightedPaging frac(inst->blocks, inst->k);
               for (const PageId p : inst->requests) frac.step(p);
               return frac.block_fetch_cost();
             });
  }
  bench::emit(table, "bench_perf",
              "PERF fractional weighted paging step (Theorem 4.1's substrate)",
              "frac_paging");
}

void exact_opt() {
  Table table = perf_table();
  for (int n : {10, 12}) {
    const Instance inst =
        Instance{BlockMap::contiguous(n, 2),
                 uniform_trace(n, 40, Xoshiro256pp(bench::seed_of(4))), n / 2};
    run_case(table, "exact_opt/n" + std::to_string(n), inst, 1, [&] {
      return exact_opt_eviction(inst).cost;
    });
  }
  bench::emit(table, "bench_perf", "PERF exact-OPT eviction solver",
              "exact_opt");
}

/// Pass-2 CSV ingestion: stream a string-keyed trace through a shared
/// CsvMapping via next_batch. This is the key-interning lane — every
/// request is one string hash + one page-id lookup — so it isolates the
/// lookup structure from policy logic. The checksum (sum of decoded page
/// ids) pins the first-appearance id assignment.
void ingest_csv_keys() {
  Table table = perf_table();
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "bac_bench_csv_keys.csv";
  constexpr int kKeys = 8192;
  constexpr long long kRows = 200'000;
  {
    std::ofstream out(path);
    Xoshiro256pp rng(bench::seed_of(11));
    std::string row;
    for (long long t = 0; t < kRows; ++t) {
      // Quadratically skewed popularity over non-numeric keys, so the
      // mapping uses arrival-locality grouping like a real CDN trace.
      const double u =
          static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0, 1)
      const int id = static_cast<int>(u * u * kKeys);
      row.clear();
      row += std::to_string(t);
      row += ",obj";
      row += std::to_string(id);
      row += ",128\n";
      out << row;
    }
  }
  CsvOptions options;
  options.k = 1024;
  const auto mapping = std::make_shared<const CsvMapping>(
      build_csv_mapping(path.string(), options));
  run_case(table, "ingest/csv-keys", mapping->header(), kRows, [&] {
    CsvSource src(path.string(), mapping, options);
    PageId buf[512];
    double checksum = 0.0;
    for (;;) {
      const int got = src.next_batch(buf, 512);
      if (got == 0) break;
      for (int i = 0; i < got; ++i) checksum += static_cast<double>(buf[i]);
    }
    return checksum;
  });
  std::error_code ec;
  fs::remove(path, ec);
  bench::emit(table, "bench_perf", "PERF pass-2 CSV key-trace ingestion",
              "ingest");
}

/// Decode at replay's shape (zipf0.9, n = 2^14, beta = 8, k = 2^11,
/// T = 5*10^5): drain the synthetic source, and a string-keyed
/// `timestamp,obj-<page>,4096` CSV of the same stream through pass 2,
/// via next_batch alone. The checksum (sum of page ids) pins the zipf
/// draws and, for CSV, the first-appearance page ids.
void decode_sources() {
  Table table = perf_table();
  constexpr int kPages = 1 << 14;
  constexpr int kBeta = 8;
  constexpr int kCache = 1 << 11;
  constexpr long long kRequests = 500'000;
  const auto drain = [](RequestSource& src) {
    PageId buf[512];
    double checksum = 0.0;
    for (int got; (got = src.next_batch(buf, 512)) > 0;)
      for (int i = 0; i < got; ++i) checksum += static_cast<double>(buf[i]);
    return checksum;
  };

  const std::uint64_t seed = bench::seed_of(13);
  const auto zipf = SyntheticSource::zipf(
      Instance{BlockMap::contiguous(kPages, kBeta), {}, kCache}, kRequests,
      0.9, Xoshiro256pp(seed));
  run_case(table, "decode/zipf/" + std::to_string(kPages), zipf->context(),
           kRequests, [&] {
             zipf->rewind();
             return drain(*zipf);
           });

  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "bac_bench_decode.csv";
  {
    std::ofstream out(path);
    const std::vector<PageId> pages = zipf_trace(
        kPages, kRequests, 0.9, Xoshiro256pp(bench::seed_of(14)));
    std::string row;
    for (std::size_t t = 0; t < pages.size(); ++t) {
      row.clear();
      row += std::to_string(t + 1);
      row += ",obj-";
      row += std::to_string(pages[t]);
      row += ",4096\n";
      out << row;
    }
  }
  CsvOptions options;
  options.k = kCache;
  options.block_pages = kBeta;
  const auto mapping = std::make_shared<const CsvMapping>(
      build_csv_mapping(path.string(), options));
  run_case(table, "decode/csv/" + std::to_string(kPages), mapping->header(),
           kRequests, [&] {
             CsvSource src(path.string(), mapping, options);
             return drain(src);
           });
  std::error_code ec;
  fs::remove(path, ec);
  bench::emit(table, "bench_perf", "PERF request-source decode", "decode");
}

/// The layer DP both exact-OPT solvers spend their time in: every time
/// step rebuilds a mask -> cost map from the previous layer. Dominance
/// pruning is off so the layers stay wide and the map operations
/// (try_emplace/min over ~10^4 states per step) dominate — with pruning
/// on, the quadratic domination pass swamps the lookup structure this
/// case exists to track. Pruning never changes the optimal cost, only
/// the state count, so the checksum matches the pruned solvers'.
void opt_layer_dp() {
  Table table = perf_table();
  const Instance inst =
      Instance{BlockMap::contiguous(14, 2),
               uniform_trace(14, 120, Xoshiro256pp(bench::seed_of(12))), 7};
  OptLimits limits;
  limits.dominance_pruning = false;
  run_case(table, "opt/layer-dp", inst, inst.horizon(), [&] {
    return exact_opt_eviction(inst, limits).cost +
           exact_opt_fetching(inst, limits).cost;
  });
  bench::emit(table, "bench_perf",
              "PERF exact-OPT layer DP (eviction + fetching)", "opt");
}

BAC_BENCH_EXPERIMENT("simulate", simulator_throughput);
BAC_BENCH_EXPERIMENT("ingest", ingest_csv_keys);
BAC_BENCH_EXPERIMENT("decode", decode_sources);
BAC_BENCH_EXPERIMENT("opt", opt_layer_dp);
BAC_BENCH_EXPERIMENT("ftau", ftau_marginals);
BAC_BENCH_EXPERIMENT("fractional", fractional_step);
BAC_BENCH_EXPERIMENT("frac_paging", fractional_paging_step);
BAC_BENCH_EXPERIMENT("exact_opt", exact_opt);

}  // namespace
}  // namespace bac
