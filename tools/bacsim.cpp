// bacsim: policy x workload x k sweep driver over streaming traces.
//
// Runs the grid sharded across the global thread pool, printing one table
// row per cell and (with --json) streaming one structured record per cell
// into a bench_main-schema JSON file as cells complete, followed by an
// aggregate block with total requests, wall time, and requests/sec.
//
//   bacsim --policies lru,block_lru,det_online
//          --workloads zipf0.9,scan,blocklocal --k 8,16,32,64
//          --json sweep.json
//
// Workloads are synthetic specs (zipf0.9, uniform, scan, blocklocal,
// phased — sized by --n/--beta/--T) or trace files (.bact binary, .csv
// key traces, v1 text). Traces stream: peak memory is independent of
// trace length. Randomized policies run --trials Monte-Carlo replays via
// the parallel simulate_mc.
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
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "algs/zoo.hpp"
#include "cli.hpp"
#include "core/step_kernel.hpp"
#include "driver/sweep.hpp"
#include "util/json.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace {

using bac::driver::SweepConfig;
using bac::driver::SweepRecord;
using bac::driver::SweepTotals;

void usage(const char* argv0) {
  std::printf(
      "usage: %s --policies <a,b,..> --workloads <w,..> --k <k1,k2,..>\n"
      "          [--n <pages>] [--beta <block size>] [--T <requests>]\n"
      "          [--seed <u64>] [--trials <n>] [--threads <n>] [--mrc]\n"
      "          [--csv-block-pages <n>] [--json [path]] [--quiet]\n"
      "          [--metrics <out.json|out.prom>] [--trace <out.jsonl>]\n"
      "          [--list-policies]\n"
      "\n"
      "  --policies   policy registry names (see --list-policies)\n"
      "  --workloads  zipf[a] | uniform | scan | blocklocal | phased,\n"
      "               or trace paths (.bact binary, .csv key trace, v1 text)\n"
      "  --k          cache sizes to sweep\n"
      "  --n/--beta/--T   synthetic workload shape (default 4096/8/200000)\n"
      "  --trials     Monte-Carlo trials for randomized policies (default 5)\n"
      "  --mrc        attach the LRU miss-ratio curve at the swept k values\n"
      "  --json       stream one record per grid cell (default sweep.json)\n"
      "  --metrics    write event counters + histograms at exit (obs JSON,\n"
      "               or Prometheus text when the path ends in .prom)\n"
      "  --trace      stream sweep/cell JSONL events as cells complete\n",
      argv0);
}

/// Streams the bench_main JSON schema cell by cell: header upfront,
/// records appended under experiments[0] as they complete, aggregate
/// written at close. The document is written to a temporary file beside
/// `path` and renamed onto it only once complete, so a sweep that fails
/// leaves no partial document (and any earlier file at `path` as it was).
class JsonStream {
 public:
  JsonStream(const std::string& path, const SweepConfig& config,
             unsigned threads)
      : path_(path),
        tmp_path_(path + ".tmp" + std::to_string(::getpid())) {
    os_.open(tmp_path_);
    if (!os_)
      throw std::runtime_error("bacsim: cannot open " + tmp_path_ +
                               " for writing");
    os_.precision(17);
    os_ << "{\n  \"bench\": \"bacsim\",\n  \"seed\": " << config.seed
        << ",\n  \"trials\": " << config.trials << ",\n  \"threads\": "
        << threads << ",\n  \"experiments\": [\n    {\n      \"name\": "
           "\"sweep\",\n      \"records\": [";
  }

  void add(const SweepRecord& r) {
    bac::MutexLock lock(mutex_);
    os_ << (first_ ? "\n" : ",\n") << "        {\"workload\": ";
    first_ = false;
    bac::write_json_string(os_, r.workload);
    os_ << ", \"policy\": ";
    bac::write_json_string(os_, r.policy);
    os_ << ", \"policy_display\": ";
    bac::write_json_string(os_, r.policy_display);
    os_ << ", \"n\": " << r.n << ", \"m\": " << r.m << ", \"k\": " << r.k
        << ", \"beta\": " << r.beta << ", \"cost\": ";
    bac::write_json_number(os_, r.cost);
    os_ << ", \"wall_ms\": ";
    bac::write_json_number(os_, r.wall_ms);
    const std::pair<const char*, double> extras[] = {
        {"eviction_cost", r.eviction_cost},
        {"fetch_cost", r.fetch_cost},
        {"stddev_cost", r.stddev_cost},
        {"requests", static_cast<double>(r.requests)},
        {"misses", static_cast<double>(r.misses)},
        {"trials", static_cast<double>(r.trials)},
        {"rps", r.rps},
        {"step_cost_p50", r.step_cost_p50},
        {"step_cost_p90", r.step_cost_p90},
        {"step_cost_p99", r.step_cost_p99},
        {"step_cost_max", r.step_cost_max},
    };
    for (const auto& [key, value] : extras) {
      os_ << ", \"" << key << "\": ";
      bac::write_json_number(os_, value);
    }
    for (const auto& [k, miss] : r.miss_curve) {
      os_ << ", \"mrc_k" << k << "\": ";
      bac::write_json_number(os_, miss);
    }
    os_ << "}";
    os_.flush();  // records land on disk as cells complete
  }

  void close(const SweepTotals& totals, double max_rss_mb) {
    bac::MutexLock lock(mutex_);
    os_ << (first_ ? "]" : "\n      ]") << "\n    }\n  ],\n  \"aggregate\": "
        << "{\"cells\": " << totals.cells
        << ", \"requests\": " << totals.requests << ", \"wall_ms\": ";
    bac::write_json_number(os_, totals.wall_ms);
    os_ << ", \"rps\": ";
    bac::write_json_number(os_, totals.rps);
    os_ << ", \"max_rss_mb\": ";
    bac::write_json_number(os_, max_rss_mb);
    os_ << "}\n}\n";
    os_.close();
    if (!os_)
      throw std::runtime_error("bacsim: short write to " + tmp_path_);
    if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0)
      throw std::runtime_error("bacsim: cannot rename " + tmp_path_ +
                               " to " + path_ + ": " +
                               std::strerror(errno));
    committed_ = true;
  }

  ~JsonStream() {
    if (committed_) return;
    os_.close();
    std::remove(tmp_path_.c_str());
  }
  JsonStream(const JsonStream&) = delete;
  JsonStream& operator=(const JsonStream&) = delete;

 private:
  std::ofstream os_ GUARDED_BY(mutex_);
  std::string path_;
  std::string tmp_path_;
  mutable bac::Mutex mutex_;
  bool first_ GUARDED_BY(mutex_) = true;
  bool committed_ GUARDED_BY(mutex_) = false;
};

double max_rss_mb() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int run(int argc, char** argv) {
  SweepConfig config;
  config.trials = 5;
  int threads = 0;
  bool json = false, quiet = false;
  std::string json_path = "sweep.json";
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
    if (arg == "--policies") {
      config.policies = bac::cli::split_list(value("--policies"));
    } else if (arg == "--workloads") {
      config.workloads = bac::cli::split_list(value("--workloads"));
    } else if (arg == "--k") {
      config.ks = bac::cli::split_positive_ints(argv[0], value("--k"), "--k",
                                                1 << 30);
    } else if (arg == "--n") {
      config.n = static_cast<int>(numeric("--n", 1u << 30));
    } else if (arg == "--beta") {
      config.beta = static_cast<int>(numeric("--beta", 1u << 20));
    } else if (arg == "--T") {
      // Time is 32-bit in the policy layer; the simulator refuses longer
      // traces, so fail at the flag instead.
      config.T = static_cast<long long>(
          numeric("--T", bac::StepKernel::kLastStep));
    } else if (arg == "--seed") {
      config.seed = std::max(1ull, numeric("--seed", ~0ull));
    } else if (arg == "--trials") {
      config.trials = static_cast<int>(numeric("--trials", 1'000'000));
    } else if (arg == "--threads") {
      threads = static_cast<int>(numeric("--threads", 4096));
    } else if (arg == "--csv-block-pages") {
      config.csv_block_pages =
          static_cast<int>(numeric("--csv-block-pages", 1u << 20));
    } else if (arg == "--mrc") {
      config.mrc = true;
    } else if (arg == "--json") {
      json = true;
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
        json_path = argv[++i];
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--list-policies") {
      for (const std::string& name : bac::policy_names())
        std::printf("%s\n", name.c_str());
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (config.policies.empty() || config.workloads.empty() ||
      config.ks.empty()) {
    usage(argv[0]);
    return 2;
  }

  if (threads > 0)
    bac::configure_global_pool(static_cast<std::size_t>(threads));
  const unsigned resolved_threads =
      threads > 0 ? static_cast<unsigned>(threads)
                  : std::max(1u, std::thread::hardware_concurrency());

  std::unique_ptr<JsonStream> stream;
  if (json)
    stream = std::make_unique<JsonStream>(json_path, config,
                                          resolved_threads);

  config.metrics = &obs.registry();
  config.trace = obs.trace();

  bac::Mutex print_mutex;
  if (!quiet)
    std::printf("%-22s %-14s %6s %12s %12s %10s %12s\n", "policy", "workload",
                "k", "cost", "misses", "wall_ms", "req/s");
  const SweepTotals totals = bac::driver::run_sweep(
      config, [&](const SweepRecord& r) {
        if (stream) stream->add(r);
        if (!quiet) {
          bac::MutexLock lock(print_mutex);
          std::printf("%-22s %-14s %6d %12.2f %12lld %10.1f %12.0f\n",
                      r.policy.c_str(), r.workload.c_str(), r.k, r.cost,
                      r.misses, r.wall_ms, r.rps);
        }
      });

  const double rss = max_rss_mb();
  if (stream) {
    stream->close(totals, rss);
    std::printf("[json: %s]\n", json_path.c_str());
  }
  obs.registry().gauge("max_rss_mb").set(rss);
  if (!obs.write_metrics(argv[0], "bacsim")) return 1;
  std::printf(
      "%lld cells, %lld requests in %.1f ms  (%.0f requests/sec, peak rss "
      "%.1f MB)\n",
      totals.cells, totals.requests, totals.wall_ms, totals.rps, rss);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bacsim failed: %s\n", e.what());
    return 1;
  }
}
