// bacload: closed-loop multithreaded load generator for the sharded
// concurrent cache data-plane (src/server).
//
// Builds one ConcurrentCache per requested thread count, replays a
// workload (synthetic spec, .bact, .csv, or v1 text trace) through it
// with shard-partitioned dispatch, and reports throughput, service
// latency percentiles, and the total block-aware cost — one bench-schema
// JSON record per thread count.
//
//   bacload --policy lru --workload zipf0.9 --k 512 --threads 1,8
//           --check-equivalence --json load.json
//
// Because dispatch preserves per-shard request order and shards share no
// mutable state, the total cost is bit-identical at every thread count;
// --check-equivalence asserts that (exit 1 on mismatch). --dispatch
// chunk switches to contended chunked dispatch (nondeterministic cost;
// for stress/contention measurements).
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algs/zoo.hpp"
#include "cli.hpp"
#include "core/step_kernel.hpp"
#include "driver/sweep.hpp"
#include "server/concurrent_cache.hpp"
#include "server/dispatch.hpp"
#include "util/json.hpp"

namespace {

using bac::server::ConcurrentCache;
using bac::server::ServerStats;

void usage(const char* argv0) {
  std::printf(
      "usage: %s --policy <name> --workload <spec> --k <pages>\n"
      "          [--n <pages>] [--beta <block size>] [--T <requests>]\n"
      "          [--shards <n|0=auto>] [--threads <t1,t2,..>] [--seed <u64>]\n"
      "          [--dispatch shard|chunk] [--check-equivalence]\n"
      "          [--csv-block-pages <n>] [--json [path]] [--quiet]\n"
      "          [--metrics <out.json|out.prom>] [--trace <out.jsonl>]\n"
      "\n"
      "  --policy     policy registry name (bacsim --list-policies)\n"
      "  --workload   zipf[a] | uniform | scan | blocklocal | phased,\n"
      "               or a trace path (.bact, .csv key trace, v1 text)\n"
      "  --k          total cache capacity in pages\n"
      "  --n/--beta/--T   synthetic workload shape (default 4096/8/200000)\n"
      "  --shards     shard count; 0 (default) picks min(max_shards, 64)\n"
      "  --threads    client thread counts to run (default 1,8)\n"
      "  --dispatch   shard (deterministic, default) | chunk (contended)\n"
      "  --check-equivalence   require bit-identical cost across runs\n"
      "  --json       write one bench-schema record per thread count\n"
      "  --metrics    server_* event counters + latency/lock-wait\n"
      "               histograms, summed over the runs (obs JSON or .prom)\n"
      "  --trace      one load span per thread-count run (JSONL)\n",
      argv0);
}

std::vector<bac::PageId> materialize(bac::RequestSource& source) {
  std::vector<bac::PageId> out;
  const long long hint = source.horizon_hint();
  if (hint > 0) out.reserve(static_cast<std::size_t>(hint));
  bac::PageId p = 0;
  while (source.next(p)) out.push_back(p);
  return out;
}

struct RunRecord {
  int threads = 0;
  double wall_ms = 0;
  double rps = 0;
  /// Throughput relative to this invocation's first (baseline) run.
  double speedup = 1.0;
  /// speedup divided by the thread-count ratio vs the baseline run:
  /// 1.0 = perfect scaling, and the gap below 1.0 is what the per-shard
  /// lock_wait_* fields in the same record explain (contention-aware
  /// scaling report, ROADMAP item 6).
  double scaling_efficiency = 1.0;
  ServerStats stats;
};

void write_json(const std::string& path, const bac::driver::SweepConfig& cfg,
                const std::string& workload, const std::string& policy,
                const std::string& policy_display, const bac::Instance& ctx,
                int shards, const std::string& dispatch,
                const std::vector<RunRecord>& runs, bool costs_equal) {
  std::ofstream os(path);
  if (!os)
    throw std::runtime_error("bacload: cannot open " + path + " for writing");
  os.precision(17);
  os << "{\n  \"bench\": \"bacload\",\n  \"seed\": " << cfg.seed
     << ",\n  \"trials\": 1,\n  \"threads\": ";
  int max_threads = 1;
  for (const RunRecord& r : runs) max_threads = std::max(max_threads, r.threads);
  os << max_threads << ",\n  \"experiments\": [\n    {\n      \"name\": "
        "\"load\",\n      \"records\": [";
  bool first = true;
  long long total_requests = 0;
  double total_wall_ms = 0;
  for (const RunRecord& r : runs) {
    os << (first ? "\n" : ",\n") << "        {\"workload\": ";
    first = false;
    bac::write_json_string(os, workload);
    os << ", \"policy\": ";
    bac::write_json_string(os, policy);
    os << ", \"policy_display\": ";
    bac::write_json_string(os, policy_display);
    os << ", \"n\": " << ctx.n_pages() << ", \"m\": " << ctx.blocks.n_blocks()
       << ", \"k\": " << ctx.k << ", \"beta\": " << ctx.blocks.beta()
       << ", \"shards\": " << shards << ", \"threads\": " << r.threads
       << ", \"dispatch\": ";
    bac::write_json_string(os, dispatch);
    os << ", \"cost\": ";
    bac::write_json_number(os, r.stats.total_cost());
    os << ", \"wall_ms\": ";
    bac::write_json_number(os, r.wall_ms);
    const std::pair<const char*, double> extras[] = {
        {"eviction_cost", r.stats.eviction_cost},
        {"fetch_cost", r.stats.fetch_cost},
        {"requests", static_cast<double>(r.stats.requests)},
        {"hits", static_cast<double>(r.stats.hits)},
        {"misses", static_cast<double>(r.stats.misses)},
        {"rps", r.rps},
        {"lat_p50_us", r.stats.lat_p50_us},
        {"lat_p99_us", r.stats.lat_p99_us},
        {"lat_p999_us", r.stats.latency_us.quantile(0.999)},
        {"lat_mean_us", r.stats.lat_mean_us},
        {"lat_max_us", r.stats.lat_max_us},
        {"lock_wait_p99_us", r.stats.lock_wait_us.quantile(0.99)},
        {"lock_wait_mean_us", r.stats.lock_wait_us.mean()},
        {"lock_wait_total_ms",
         r.stats.lock_wait_us.mean() *
             static_cast<double>(r.stats.lock_wait_us.count()) / 1000.0},
        {"speedup", r.speedup},
        {"scaling_efficiency", r.scaling_efficiency},
    };
    for (const auto& [key, value] : extras) {
      os << ", \"" << key << "\": ";
      bac::write_json_number(os, value);
    }
    os << "}";
    total_requests += r.stats.requests;
    total_wall_ms += r.wall_ms;
  }
  os << (first ? "]" : "\n      ]") << "\n    }\n  ],\n  \"aggregate\": "
     << "{\"runs\": " << runs.size() << ", \"requests\": " << total_requests
     << ", \"wall_ms\": ";
  bac::write_json_number(os, total_wall_ms);
  os << ", \"cost_equal_across_runs\": " << (costs_equal ? "true" : "false")
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << "}\n}\n";
  if (!os.flush())
    throw std::runtime_error("bacload: short write to " + path);
}

int run(int argc, char** argv) {
  bac::driver::SweepConfig config;  // reused for workload parsing
  std::string policy_name;
  std::string workload;
  std::string dispatch = "shard";
  std::vector<int> thread_counts;
  int k = 0;
  int shards = 0;
  bool check_equivalence = false;
  bool json = false, quiet = false;
  std::string json_path = "load.json";
  bac::cli::ObsFlags obs;

  for (int i = 1; i < argc; ++i) {
    if (obs.handle(argc, argv, i)) continue;
    const std::string arg = argv[i];
    auto value = [&](const char* flag) {
      return bac::cli::flag_value(argc, argv, i, flag);
    };
    auto numeric = [&](const char* flag, unsigned long long max) {
      return bac::cli::flag_u64(argc, argv, i, flag, max);
    };
    if (arg == "--policy") {
      policy_name = value("--policy");
    } else if (arg == "--workload") {
      workload = value("--workload");
    } else if (arg == "--k") {
      k = static_cast<int>(numeric("--k", 1u << 30));
    } else if (arg == "--n") {
      config.n = static_cast<int>(numeric("--n", 1u << 30));
    } else if (arg == "--beta") {
      config.beta = static_cast<int>(numeric("--beta", 1u << 20));
    } else if (arg == "--T") {
      config.T = static_cast<long long>(
          numeric("--T", bac::StepKernel::kLastStep));
    } else if (arg == "--seed") {
      config.seed = std::max(1ull, numeric("--seed", ~0ull));
    } else if (arg == "--shards") {
      shards = static_cast<int>(numeric("--shards", 1u << 20));
    } else if (arg == "--threads") {
      thread_counts = bac::cli::split_positive_ints(argv[0], value("--threads"),
                                                    "--threads", 4096);
    } else if (arg == "--dispatch") {
      dispatch = value("--dispatch");
      if (dispatch != "shard" && dispatch != "chunk") {
        std::fprintf(stderr, "%s: --dispatch wants shard|chunk, got '%s'\n",
                     argv[0], dispatch.c_str());
        return 2;
      }
    } else if (arg == "--check-equivalence") {
      check_equivalence = true;
    } else if (arg == "--csv-block-pages") {
      config.csv_block_pages =
          static_cast<int>(numeric("--csv-block-pages", 1u << 20));
    } else if (arg == "--json") {
      json = true;
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
        json_path = argv[++i];
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (policy_name.empty() || workload.empty() || k <= 0) {
    usage(argv[0]);
    return 2;
  }
  if (thread_counts.empty()) thread_counts = {1, 8};
  if (check_equivalence && dispatch != "shard") {
    std::fprintf(stderr,
                 "%s: --check-equivalence requires --dispatch shard "
                 "(chunked interleavings are nondeterministic)\n",
                 argv[0]);
    return 2;
  }

  const auto prototype = bac::make_policy(policy_name);

  // Materialize the workload once (partitioning needs random access);
  // every run replays the same sequence.
  auto source = bac::driver::make_workload_source(workload, config, k);
  bac::Instance ctx{source->context().blocks, {}, k};
  const std::vector<bac::PageId> requests = materialize(*source);
  if (requests.empty()) {
    std::fprintf(stderr, "%s: workload '%s' yielded no requests\n", argv[0],
                 workload.c_str());
    return 2;
  }

  if (shards == 0)
    shards = std::min(ConcurrentCache::max_shards(ctx), 64);

  if (!quiet)
    std::printf("%8s %8s %12s %12s %14s %10s %12s %10s %10s %8s %6s\n",
                "threads", "shards", "requests", "misses", "cost", "wall_ms",
                "req/s", "p50_us", "p99_us", "speedup", "eff");

  std::vector<RunRecord> runs;
  double base_rps = 0;
  for (const int n_threads : thread_counts) {
    // A fresh cache per run: every run starts cold from the same state.
    ConcurrentCache cache(ctx, *prototype, shards, config.seed);
    bac::obs::Span span(obs.trace(), "load/t" + std::to_string(n_threads));
    const double seconds =
        dispatch == "shard"
            ? bac::server::serve_partitioned(cache, requests, n_threads)
            : bac::server::serve_chunked(cache, requests, n_threads);
    RunRecord r;
    r.threads = n_threads;
    r.stats = cache.stats();
    // server_* event counters are identical for every shard-partitioned
    // run, so the exported sums stay thread-count invariant per run (the
    // CI metrics-smoke job diffs single-run counter sections).
    cache.export_metrics(obs.registry());
    span.num("threads", n_threads);
    span.num("requests", static_cast<double>(r.stats.requests));
    span.num("misses", static_cast<double>(r.stats.misses));
    span.num("cost", r.stats.total_cost());
    r.wall_ms = seconds * 1000.0;
    r.rps = seconds > 0 ? static_cast<double>(r.stats.requests) / seconds : 0;
    if (runs.empty()) base_rps = r.rps;
    r.speedup = base_rps > 0 ? r.rps / base_rps : 0.0;
    const double thread_ratio =
        static_cast<double>(n_threads) /
        static_cast<double>(runs.empty() ? n_threads : thread_counts.front());
    r.scaling_efficiency = thread_ratio > 0 ? r.speedup / thread_ratio : 0.0;
    if (!quiet)
      std::printf(
          "%8d %8d %12lld %12lld %14.2f %10.1f %12.0f %10.2f %10.2f %7.2fx "
          "%6.2f\n",
          r.threads, shards, r.stats.requests, r.stats.misses,
          r.stats.total_cost(), r.wall_ms, r.rps, r.stats.lat_p50_us,
          r.stats.lat_p99_us, r.speedup, r.scaling_efficiency);
    runs.push_back(r);
  }

  bool costs_equal = true;
  for (const RunRecord& r : runs) {
    if (r.stats.total_cost() != runs.front().stats.total_cost() ||
        r.stats.misses != runs.front().stats.misses)
      costs_equal = false;
  }

  if (json) {
    write_json(json_path, config, workload, policy_name, prototype->name(),
               ctx, shards, dispatch, runs, costs_equal);
    std::printf("[json: %s]\n", json_path.c_str());
  }
  if (!obs.write_metrics(argv[0], "bacload")) return 1;

  if (check_equivalence) {
    if (!costs_equal) {
      std::fprintf(stderr,
                   "bacload: FAIL — total cost differs across thread counts "
                   "(shard-partitioned dispatch should be bit-identical)\n");
      return 1;
    }
    std::printf(
        "equivalence OK: total cost %.17g bit-identical across %zu runs\n",
        runs.front().stats.total_cost(), runs.size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bacload failed: %s\n", e.what());
    return 1;
  }
}
