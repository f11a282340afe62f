// The bacsim sweep driver: grid expansion, record contents, file
// workloads, Monte-Carlo cells, and the parallel simulate_mc (clone-based
// and factory-based) whose results must be bit-identical to serial
// replay regardless of thread count — including when nested inside pool
// tasks, which exercises the pool's deadlock-free waiting.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "algs/policies/classical.hpp"
#include "algs/zoo.hpp"
#include "core/simulator.hpp"
#include "driver/sweep.hpp"
#include "trace/bact.hpp"
#include "trace/generators.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace bac {
namespace {

// The global pool is built on first use; size it up front so these tests
// exercise real parallelism even on single-core CI runners.
[[maybe_unused]] const bool g_pool_sized = [] {
  configure_global_pool(4);
  return true;
}();

driver::SweepConfig small_config() {
  driver::SweepConfig config;
  config.policies = {"lru", "block_lru"};
  config.workloads = {"zipf0.9", "scan"};
  config.ks = {8, 16};
  config.n = 64;
  config.beta = 4;
  config.T = 2000;
  return config;
}

TEST(Sweep, EmitsOneRecordPerGridCell) {
  bac::Mutex mutex;
  std::vector<driver::SweepRecord> records;
  const driver::SweepTotals totals =
      driver::run_sweep(small_config(), [&](const driver::SweepRecord& r) {
        bac::MutexLock lock(mutex);
        records.push_back(r);
      });

  EXPECT_EQ(totals.cells, 8);
  ASSERT_EQ(records.size(), 8u);
  EXPECT_EQ(totals.requests, 8 * 2000);
  EXPECT_GT(totals.rps, 0.0);

  std::map<std::string, int> per_policy;
  for (const auto& r : records) {
    EXPECT_EQ(r.requests, 2000);
    EXPECT_GT(r.cost, 0.0);
    EXPECT_EQ(r.n, 64);
    EXPECT_EQ(r.beta, 4);
    EXPECT_TRUE(r.k == 8 || r.k == 16);
    ++per_policy[r.policy];
  }
  EXPECT_EQ(per_policy["lru"], 4);
  EXPECT_EQ(per_policy["block_lru"], 4);
}

TEST(Sweep, CellsMatchDirectSimulation) {
  driver::SweepConfig config = small_config();
  config.policies = {"det_online"};
  config.workloads = {"zipf0.9"};
  config.ks = {16};

  bac::Mutex mutex;
  std::vector<driver::SweepRecord> records;
  driver::run_sweep(config, [&](const driver::SweepRecord& r) {
    bac::MutexLock lock(mutex);
    records.push_back(r);
  });
  ASSERT_EQ(records.size(), 1u);

  auto source = driver::make_workload_source("zipf0.9", config, 16);
  auto policy = make_policy("det_online");
  SimOptions options;
  options.seed = config.seed;
  const RunResult direct = simulate(*source, *policy, options);
  EXPECT_DOUBLE_EQ(records[0].cost,
                   direct.eviction_cost + direct.fetch_cost);
  EXPECT_EQ(records[0].misses, direct.misses);
}

TEST(Sweep, MissRatioCurveRidesAlong) {
  driver::SweepConfig config = small_config();
  config.policies = {"lru"};
  config.workloads = {"zipf0.9"};
  config.mrc = true;

  bac::Mutex mutex;
  std::vector<driver::SweepRecord> records;
  driver::run_sweep(config, [&](const driver::SweepRecord& r) {
    bac::MutexLock lock(mutex);
    records.push_back(r);
  });
  ASSERT_EQ(records.size(), 2u);
  for (const auto& r : records) {
    ASSERT_EQ(r.miss_curve.size(), config.ks.size());
    // The curve is monotone non-increasing in k.
    EXPECT_GE(r.miss_curve[0].second, r.miss_curve[1].second - 1e-12);
  }
}

TEST(Sweep, RandomizedPoliciesRunMonteCarloTrials) {
  driver::SweepConfig config = small_config();
  config.policies = {"marking"};
  config.workloads = {"zipf0.9"};
  config.ks = {8};
  config.trials = 3;

  bac::Mutex mutex;
  std::vector<driver::SweepRecord> records;
  driver::run_sweep(config, [&](const driver::SweepRecord& r) {
    bac::MutexLock lock(mutex);
    records.push_back(r);
  });
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].trials, 3);
  EXPECT_GT(records[0].cost, 0.0);
  EXPECT_GE(records[0].stddev_cost, 0.0);
  EXPECT_EQ(records[0].requests, 3 * 2000);  // trials x T, counted per run
}

TEST(Sweep, FileWorkloadsSweepAcrossK) {
  const std::string file =
      (std::filesystem::temp_directory_path() /
       ("bac_sweep_" + std::to_string(::getpid()) + ".bact"))
          .string();
  Xoshiro256pp rng(77);
  const Instance inst =
      make_instance(32, 4, 8, zipf_trace(32, 600, 0.9, rng));
  save_bact(inst, file);

  driver::SweepConfig config;
  config.policies = {"lru"};
  config.workloads = {file};
  config.ks = {8, 16};

  bac::Mutex mutex;
  std::vector<driver::SweepRecord> records;
  driver::run_sweep(config, [&](const driver::SweepRecord& r) {
    bac::MutexLock lock(mutex);
    records.push_back(r);
  });
  std::filesystem::remove(file);

  ASSERT_EQ(records.size(), 2u);
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.k < b.k; });
  EXPECT_EQ(records[0].k, 8);   // file header's k is overridden per cell
  EXPECT_EQ(records[1].k, 16);
  EXPECT_EQ(records[0].requests, 600);
  EXPECT_GT(records[0].cost, 0.0);
  EXPECT_GE(records[0].cost, records[1].cost);  // bigger cache, lower cost
}

TEST(Sweep, FileKSweepSharesBlockStructureAndStaysBitIdentical) {
  // Regression for the KOverride deep copy: the k-override header must
  // share the trace's block structure (O(1) per cell, not O(n_pages)),
  // and the sweep records must stay bit-identical to a direct simulate
  // over the materialized instance at each k.
  const std::string file =
      (std::filesystem::temp_directory_path() /
       ("bac_kshare_" + std::to_string(::getpid()) + ".bact"))
          .string();
  Xoshiro256pp rng(91);
  const Instance inst =
      make_instance(48, 4, 8, zipf_trace(48, 900, 0.9, rng));
  save_bact(inst, file);

  driver::SweepConfig config;
  config.policies = {"lru", "block_lru"};
  config.workloads = {file};
  config.ks = {8, 12, 24};

  // The override header shares the underlying source's structure.
  auto source = driver::make_workload_source(file, config, 12);
  EXPECT_EQ(source->context().k, 12);

  bac::Mutex mutex;
  std::vector<driver::SweepRecord> records;
  driver::run_sweep(config, [&](const driver::SweepRecord& r) {
    bac::MutexLock lock(mutex);
    records.push_back(r);
  });
  const Instance materialized = load_bact(file);
  std::filesystem::remove(file);

  ASSERT_EQ(records.size(), 6u);
  for (const auto& r : records) {
    Instance cell = materialized;
    cell.k = r.k;
    auto policy = make_policy(r.policy);
    SimOptions options;
    options.seed = config.seed;
    const RunResult direct = simulate(cell, *policy, options);
    // Bit-identical, not approximately equal: sharing the structure must
    // not perturb a single double anywhere in the pipeline.
    EXPECT_EQ(r.eviction_cost, direct.eviction_cost)
        << r.policy << " k=" << r.k;
    EXPECT_EQ(r.fetch_cost, direct.fetch_cost) << r.policy << " k=" << r.k;
    EXPECT_EQ(r.cost, direct.eviction_cost + direct.fetch_cost);
    EXPECT_EQ(r.misses, direct.misses);
  }
}

TEST(Sweep, ZipfNamedFilesRouteToTraceReaders) {
  // A trace whose basename starts with "zipf" must not be parsed as a
  // synthetic zipf spec.
  const std::string file =
      (std::filesystem::temp_directory_path() /
       ("zipf_day1_" + std::to_string(::getpid()) + ".bact"))
          .string();
  const Instance inst = make_instance(16, 4, 8, scan_trace(16, 100));
  save_bact(inst, file);
  driver::SweepConfig config = small_config();
  auto source = driver::make_workload_source(file, config, 8);
  EXPECT_EQ(source->horizon_hint(), 100);
  std::filesystem::remove(file);
}

TEST(Sweep, MalformedTextTraceErrorsNameTheTrace) {
  // A sweep opens text traces through TextTraceSource, not
  // load_instance; a bad header or a bad request token must name the
  // trace's path, not a function the sweep never called.
  const std::string file =
      (std::filesystem::temp_directory_path() /
       ("bac_bad_trace_" + std::to_string(::getpid()) + ".txt"))
          .string();
  const driver::SweepConfig config = small_config();
  for (const char* text :
       {"blockcache-trace v1 n 2 k 2",
        "blockcache-instance v1 n 2 k 2 blocks 1 block 0 1.0 0 1 "
        "requests 2 0 x"}) {
    {
      std::ofstream out(file);
      out << text << "\n";
    }
    std::string message;
    try {
      auto source = driver::make_workload_source(file, config, 2);
      PageId p = 0;
      while (source->next(p)) {
      }
    } catch (const std::runtime_error& e) {
      message = e.what();
    }
    EXPECT_NE(message.find(file), std::string::npos) << text << ": " << message;
    EXPECT_EQ(message.find("load_instance"), std::string::npos) << message;
  }
  std::filesystem::remove(file);
}

TEST(Sweep, CsvMappingCacheIsBounded) {
  // Regression: the process-wide CSV mapping cache used to be an
  // unbounded static unordered_map; a long-lived process sweeping many
  // distinct trace files grew it forever. It must now cap at
  // kCsvMappingCacheCapacity entries, evicting the coldest.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("bac_csvcache_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  driver::csv_mapping_cache_clear();
  ASSERT_EQ(driver::csv_mapping_cache_size(), 0);

  driver::SweepConfig config;
  const int files = driver::kCsvMappingCacheCapacity + 3;
  std::vector<std::string> paths;
  for (int i = 0; i < files; ++i) {
    const std::string file =
        (dir / ("trace" + std::to_string(i) + ".csv")).string();
    {
      std::ofstream out(file);
      out << "timestamp,key,size\n"
             "1,100,4096\n2,101,4096\n3,102,4096\n4,100,4096\n";
    }
    paths.push_back(file);
    auto source = driver::make_workload_source(file, config, 8);
    ASSERT_NE(source, nullptr);
    EXPECT_LE(driver::csv_mapping_cache_size(),
              driver::kCsvMappingCacheCapacity);
  }
  EXPECT_EQ(driver::csv_mapping_cache_size(),
            driver::kCsvMappingCacheCapacity);

  // Re-reading a file that is still cached hits instead of growing.
  (void)driver::make_workload_source(paths.back(), config, 8);
  EXPECT_EQ(driver::csv_mapping_cache_size(),
            driver::kCsvMappingCacheCapacity);

  driver::csv_mapping_cache_clear();
  EXPECT_EQ(driver::csv_mapping_cache_size(), 0);
  fs::remove_all(dir);
}

TEST(Sweep, UnknownPolicyOrWorkloadThrows) {
  driver::SweepConfig config = small_config();
  config.policies = {"definitely_not_a_policy"};
  EXPECT_THROW(driver::run_sweep(config, nullptr), std::invalid_argument);

  config = small_config();
  config.workloads = {"definitely_not_a_workload"};
  EXPECT_THROW(driver::run_sweep(config, nullptr), std::invalid_argument);
}

TEST(Sweep, OfflinePolicyThrowsBeforeAnyCellRuns) {
  // Every sweep source streams, so Belady could never run; the sweep must
  // refuse it before lru's cells produce a record.
  driver::SweepConfig config = small_config();
  config.policies = {"lru", "belady"};
  std::atomic<int> records{0};  // sinks run on pool threads
  try {
    driver::run_sweep(config, [&](const driver::SweepRecord&) { ++records; });
    ADD_FAILURE() << "the sweep should refuse belady";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("belady"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(records, 0);
}

TEST(Sweep, InfeasibleKFailsLoudly) {
  driver::SweepConfig config = small_config();
  config.ks = {2};  // < beta = 4: no feasible cache
  EXPECT_THROW(driver::run_sweep(config, nullptr), std::invalid_argument);
}

// --- parallel simulate_mc ---------------------------------------------------

MonteCarloResult serial_reference(const Instance& inst, OnlinePolicy& policy,
                                  int trials, std::uint64_t root_seed) {
  // Mirrors the documented per-trial seed derivation and reduction order.
  StreamingStats evict, fetch;
  for (int i = 0; i < trials; ++i) {
    SimOptions options;
    options.seed =
        root_seed + static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL;
    options.record_sketch = false;
    const RunResult r = simulate(inst, policy, options);
    evict.add(r.eviction_cost);
    fetch.add(r.fetch_cost);
  }
  MonteCarloResult out;
  out.mean_eviction_cost = evict.mean();
  out.mean_fetch_cost = fetch.mean();
  out.stddev_eviction_cost = evict.stddev();
  out.stddev_fetch_cost = fetch.stddev();
  out.trials = trials;
  return out;
}

TEST(ParallelMc, CloneBasedTrialsAreBitIdenticalToSerial) {
  ASSERT_GT(global_pool().size(), 1u);
  Xoshiro256pp rng(61);
  const Instance inst =
      make_instance(32, 4, 8, zipf_trace(32, 1500, 0.9, rng));

  MarkingPolicy reference;
  const MonteCarloResult want = serial_reference(inst, reference, 8, 5);
  MarkingPolicy parallel;
  const MonteCarloResult got = simulate_mc(inst, parallel, 8, 5);

  EXPECT_EQ(got.trials, want.trials);
  EXPECT_DOUBLE_EQ(got.mean_eviction_cost, want.mean_eviction_cost);
  EXPECT_DOUBLE_EQ(got.mean_fetch_cost, want.mean_fetch_cost);
  EXPECT_DOUBLE_EQ(got.stddev_eviction_cost, want.stddev_eviction_cost);
  EXPECT_DOUBLE_EQ(got.stddev_fetch_cost, want.stddev_fetch_cost);
}

TEST(ParallelMc, FactoryVariantMatchesCloneVariant) {
  Xoshiro256pp rng(62);
  const Instance inst =
      make_instance(24, 3, 9, zipf_trace(24, 1200, 0.8, rng));
  MarkingPolicy proto;
  const MonteCarloResult clone_based = simulate_mc(inst, proto, 6, 11);
  const MonteCarloResult factory_based = simulate_mc(
      [&] { return std::make_unique<InstanceSource>(inst); },
      [] {
        return std::unique_ptr<OnlinePolicy>(
            std::make_unique<MarkingPolicy>());
      },
      6, 11);
  EXPECT_DOUBLE_EQ(factory_based.mean_fetch_cost,
                   clone_based.mean_fetch_cost);
  EXPECT_DOUBLE_EQ(factory_based.stddev_fetch_cost,
                   clone_based.stddev_fetch_cost);
}

TEST(ParallelMc, NestedInsidePoolTasksDoesNotDeadlock) {
  Xoshiro256pp rng(63);
  const Instance inst =
      make_instance(24, 3, 9, zipf_trace(24, 800, 0.9, rng));
  std::vector<MonteCarloResult> results(6);
  global_pool().parallel_for_indexed(6, [&](std::size_t i) {
    MarkingPolicy marking;
    results[i] = simulate_mc(inst, marking, 4, 100 + i);
  });
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].trials, 4);
    EXPECT_GT(results[i].mean_fetch_cost, 0.0);
  }
}

TEST(ParallelMc, PrototypeStateReflectsACompletedRun) {
  // Callers read policy state after simulate_mc (e.g. fractional costs);
  // the parallel path must leave the prototype having run a trial.
  Xoshiro256pp rng(64);
  const Instance inst =
      make_instance(20, 4, 8, zipf_trace(20, 600, 0.9, rng));
  MarkingPolicy marking;
  const MonteCarloResult mc = simulate_mc(inst, marking, 4, 9);
  EXPECT_EQ(mc.trials, 4);
  // A fresh simulate on the prototype must not throw (state consistent).
  EXPECT_NO_THROW(simulate(inst, marking));
}

TEST(Sweep, RandOnlineCountersMatchOneThreadRuns) {
  // rand_online's decision counters, folded by a sweep whose cells run
  // on the 4-thread pool, equal the same cells run one after another on
  // this thread: every count is a function of the cell's seed.
  driver::SweepConfig config;
  config.policies = {"rand_online"};
  config.workloads = {"blocklocal", "zipf0.9"};
  config.ks = {16};
  config.n = 64;
  config.beta = 4;
  config.T = 1500;
  obs::MetricRegistry pooled;
  config.metrics = &pooled;
  driver::run_sweep(config, nullptr);

  obs::MetricRegistry serial;
  for (const std::string& workload : config.workloads) {
    auto source = driver::make_workload_source(workload, config, 16);
    auto policy = make_policy("rand_online");
    SimOptions options;
    options.seed = config.seed;
    options.metrics = &serial;
    simulate(*source, *policy, options);
  }
  for (const char* name :
       {"policy_separation_calls_total", "policy_separation_scored_total",
        "policy_separation_exact_total", "policy_separation_net_builds_total",
        "policy_separation_net_kept_total",
        "policy_separation_net_points_total",
        "policy_saturation_bisections_total",
        "policy_saturation_lhs_evals_total", "policy_alterations_total",
        "policy_fallback_alterations_total"})
    EXPECT_EQ(pooled.counter(name).value(), serial.counter(name).value())
        << name;
  EXPECT_GT(serial.counter("policy_separation_calls_total").value(), 3000u);
  EXPECT_GT(serial.counter("policy_saturation_bisections_total").value(), 0u);
  EXPECT_LT(serial.counter("policy_separation_exact_total").value(),
            serial.counter("policy_separation_scored_total").value());
}

TEST(Sweep, ThresholdFetchCountersMatchOneThreadRuns) {
  // threshold_fetch's bisection counters, folded by a sweep whose cells
  // run on the 4-thread pool, equal the same cells run one after another
  // on this thread: every count is a function of the cell's seed.
  driver::SweepConfig config;
  config.policies = {"threshold_fetch"};
  config.workloads = {"blocklocal", "zipf0.9"};
  config.ks = {16};
  config.n = 64;
  config.beta = 4;
  config.T = 3000;
  obs::MetricRegistry pooled;
  config.metrics = &pooled;
  driver::run_sweep(config, nullptr);

  obs::MetricRegistry serial;
  for (const std::string& workload : config.workloads) {
    auto source = driver::make_workload_source(workload, config, 16);
    auto policy = make_policy("threshold_fetch");
    SimOptions options;
    options.seed = config.seed;
    options.metrics = &serial;
    simulate(*source, *policy, options);
  }
  for (const char* name :
       {"policy_growth_bisections_total", "policy_growth_halvings_total",
        "policy_growth_exp_reads_total", "policy_growth_mass_evals_total"})
    EXPECT_EQ(pooled.counter(name).value(), serial.counter(name).value())
        << name;
  // Unit costs: one cost class, so the halvings read std::exp, and the
  // bracket decides most of them without a reading.
  const auto bisections =
      serial.counter("policy_growth_bisections_total").value();
  EXPECT_GT(bisections, 1000u);
  EXPECT_LT(serial.counter("policy_growth_exp_reads_total").value(),
            serial.counter("policy_growth_halvings_total").value() / 2);
  EXPECT_GT(serial.counter("policy_growth_mass_evals_total").value(),
            bisections);  // the g* search walks the mass
}

}  // namespace
}  // namespace bac
