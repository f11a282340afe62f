#include "driver/sweep.hpp"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "algs/zoo.hpp"
#include "core/simulator.hpp"
#include "trace/bact.hpp"
#include "trace/csv.hpp"
#include "trace/trace_io.hpp"
#include "util/flat_hash.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace bac::driver {

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// File specs are paths (contain '/') or carry a trace extension; this
/// keeps synthetic names like "zipf0.9" synthetic while "zipf_day1.bact"
/// routes to the trace reader.
bool is_file_spec(const std::string& spec) {
  return spec.find('/') != std::string::npos || ends_with(spec, ".bact") ||
         ends_with(spec, ".csv") || ends_with(spec, ".txt") ||
         ends_with(spec, ".trace");
}

/// "zipf0.9" -> 0.9; "zipf" -> 0.9; anything else unparsable throws.
double zipf_alpha(const std::string& spec) {
  if (spec == "zipf") return 0.9;
  const std::string digits = spec.substr(4);
  char* end = nullptr;
  errno = 0;
  const double alpha = std::strtod(digits.c_str(), &end);
  if (errno != 0 || end != digits.c_str() + digits.size() || alpha < 0)
    throw std::invalid_argument("sweep: bad zipf spec '" + spec + "'");
  return alpha;
}

/// Presents an inner streaming source under a different cache size, so
/// one trace file sweeps across k without rewriting its header. The
/// header's BlockMap shares the inner source's structure (BlockMap copies
/// are O(1) handle bumps), so a file-trace k-sweep costs no per-cell
/// page-map memory.
class KOverride final : public RequestSource {
 public:
  KOverride(std::unique_ptr<RequestSource> inner, int k)
      : inner_(std::move(inner)),
        header_{inner_->context().blocks, {}, k} {
    header_.validate();  // beta <= k must still hold under the override
  }

  [[nodiscard]] const Instance& context() const override { return header_; }
  [[nodiscard]] long long horizon_hint() const override {
    return inner_->horizon_hint();
  }
  bool next(PageId& p) override { return inner_->next(p); }
  /// Forward batches whole: the inner source's pipelined batch decode
  /// (CsvSource, BactSource) would be bypassed by the base class's
  /// one-at-a-time default.
  int next_batch(PageId* out, int cap) override {
    return inner_->next_batch(out, cap);
  }
  void rewind() override { inner_->rewind(); }

 private:
  std::unique_ptr<RequestSource> inner_;
  Instance header_;
};

/// Zipf is only well-defined over a spec beginning with "zipf"; keep the
/// dispatch table in one place for specs and error messages.
std::unique_ptr<RequestSource> make_synthetic(const std::string& spec,
                                              const SweepConfig& c, int k) {
  const int n = c.n;
  const int beta = c.beta;
  const long long T = c.T;
  if (spec.rfind("zipf", 0) == 0)
    return SyntheticSource::zipf(n, beta, k, T, zipf_alpha(spec), c.seed);
  if (spec == "uniform")
    return SyntheticSource::uniform(n, beta, k, T, c.seed);
  if (spec == "scan") return SyntheticSource::scan(n, beta, k, T);
  if (spec == "blocklocal")
    return SyntheticSource::block_local(n, beta, k, T, 0.75, 0.9, c.seed);
  if (spec == "phased")
    return SyntheticSource::phased(n, beta, k, T, std::max<long long>(1, T / 10),
                                   k + beta, c.seed);
  throw std::invalid_argument(
      "sweep: unknown workload '" + spec +
      "' (expected zipf[a], uniform, scan, blocklocal, phased, or a "
      ".bact/.csv/text trace path)");
}

/// Process-wide CSV mapping cache: pass 1 runs once per (file, inference
/// options) pair, then every cell shares the read-only mapping. The key
/// includes every option that shapes the mapping, so sweeps with
/// different block inference never reuse a stale structure.
///
/// Bounded: a sweep grid reuses at most a handful of distinct trace
/// files, but a long-lived process sweeping many files used to grow
/// forever. The cache holds the kCsvMappingCacheCapacity most recently
/// used mappings (LRU over a FlatMap: hit or miss is decided by a
/// single try_emplace probe — one hash of the key either way — and the
/// coldest entry beyond capacity is evicted by a linear scan, fine at
/// single-digit capacity); shared_ptr keeps evicted mappings alive for
/// cells still running on them.
struct CsvMappingSlot {
  std::shared_ptr<const CsvMapping> mapping;
  std::uint64_t last_used = 0;
};

Mutex g_csv_cache_mutex;
FlatMap<std::string, CsvMappingSlot> g_csv_cache GUARDED_BY(g_csv_cache_mutex);
std::uint64_t g_csv_cache_clock GUARDED_BY(g_csv_cache_mutex) = 0;

std::shared_ptr<const CsvMapping> csv_mapping_for(const std::string& path,
                                                  const SweepConfig& c,
                                                  int k) {
  const std::string key =
      path + "\x1f" + std::to_string(c.csv_block_pages);
  MutexLock lock(g_csv_cache_mutex);
  // One probe decides hit vs miss; on a miss the slot is filled in
  // place. build_csv_mapping can throw (unreadable file), so the
  // placeholder is erased on the way out — a failed pass 1 must not
  // cache a null mapping.
  const auto [slot, inserted] = g_csv_cache.try_emplace(key);
  if (!inserted) {
    slot->last_used = ++g_csv_cache_clock;
    return slot->mapping;
  }
  try {
    CsvOptions options;
    options.block_pages = c.csv_block_pages;
    options.k = k;
    slot->mapping =
        std::make_shared<const CsvMapping>(build_csv_mapping(path, options));
  } catch (...) {
    g_csv_cache.erase(key);
    throw;
  }
  slot->last_used = ++g_csv_cache_clock;
  std::shared_ptr<const CsvMapping> mapping = slot->mapping;
  if (g_csv_cache.size() >
      static_cast<std::size_t>(kCsvMappingCacheCapacity)) {
    // Evict the coldest entry (never the one just inserted — it holds
    // the newest clock). erase() only tombstones, so no slot moves.
    const std::string* coldest = nullptr;
    std::uint64_t coldest_used = std::numeric_limits<std::uint64_t>::max();
    for (const auto& [cached_key, cached] : g_csv_cache) {
      if (cached.last_used < coldest_used) {
        coldest_used = cached.last_used;
        coldest = &cached_key;
      }
    }
    if (coldest != nullptr) {
      const std::string victim = *coldest;
      g_csv_cache.erase(victim);
    }
  }
  return mapping;
}

}  // namespace

int csv_mapping_cache_size() {
  MutexLock lock(g_csv_cache_mutex);
  return static_cast<int>(g_csv_cache.size());
}

void csv_mapping_cache_clear() {
  MutexLock lock(g_csv_cache_mutex);
  g_csv_cache.clear();
}

std::unique_ptr<RequestSource> make_workload_source(
    const std::string& spec, const SweepConfig& config, int k) {
  if (!is_file_spec(spec)) return make_synthetic(spec, config, k);
  std::unique_ptr<RequestSource> inner;
  if (ends_with(spec, ".bact")) {
    inner = std::make_unique<BactSource>(spec);
  } else if (ends_with(spec, ".csv")) {
    CsvOptions options;
    options.block_pages = config.csv_block_pages;
    options.k = k;
    inner = std::make_unique<CsvSource>(
        spec, csv_mapping_for(spec, config, k), options);
  } else {
    inner = std::make_unique<TextTraceSource>(spec);
  }
  return std::make_unique<KOverride>(std::move(inner), k);
}

SweepTotals run_sweep(const SweepConfig& config, const RecordSink& sink) {
  if (config.policies.empty())
    throw std::invalid_argument("sweep: no policies selected");
  if (config.workloads.empty())
    throw std::invalid_argument("sweep: no workloads selected");
  if (config.ks.empty())
    throw std::invalid_argument("sweep: no cache sizes selected");

  // Resolve policy names upfront so typos, and offline policies that no
  // streaming source can serve, fail before any cell runs.
  for (const std::string& name : config.policies)
    if (make_policy(name)->requires_future())
      throw std::invalid_argument(
          "sweep: policy '" + name +
          "' is offline (it needs the whole trace upfront) and sweep "
          "workloads stream");

  struct Cell {
    std::string policy;
    std::string workload;
    int k;
  };
  std::vector<Cell> cells;
  cells.reserve(config.policies.size() * config.workloads.size() *
                config.ks.size());
  for (const std::string& w : config.workloads)
    for (const std::string& p : config.policies)
      for (const int k : config.ks) cells.push_back({p, w, k});

  Mutex totals_mutex;
  SweepTotals totals;
  totals.cells = static_cast<long long>(cells.size());

  Stopwatch sweep_clock;
  obs::Span sweep_span(config.trace, "sweep");
  global_pool().parallel_for_indexed(cells.size(), [&](std::size_t i) {
    const Cell& cell = cells[i];
    auto policy = make_policy(cell.policy);
    const bool monte_carlo = policy->randomized() && config.trials > 1;

    SweepRecord record;
    record.policy = cell.policy;
    record.policy_display = policy->name();
    record.workload = cell.workload;
    record.k = cell.k;
    record.trials = monte_carlo ? config.trials : 1;

    const std::string cell_name =
        config.trace == nullptr
            ? std::string()
            : cell.policy + "/" + cell.workload + "/k" + std::to_string(cell.k);
    if (config.trace != nullptr) config.trace->emit("cell_begin", cell_name);

    Stopwatch cell_clock;
    if (monte_carlo) {
      auto source = make_workload_source(cell.workload, config, cell.k);
      const Instance& ctx = source->context();
      record.n = ctx.n_pages();
      record.m = ctx.blocks.n_blocks();
      record.beta = ctx.blocks.beta();
      const MonteCarloResult mc = simulate_mc(
          [&] { return make_workload_source(cell.workload, config, cell.k); },
          [&] { return make_policy(cell.policy); }, config.trials,
          config.seed);
      record.eviction_cost = mc.mean_eviction_cost;
      record.fetch_cost = mc.mean_fetch_cost;
      record.cost = mc.mean_total_cost;
      record.stddev_cost = mc.stddev_total_cost;
      record.requests = mc.total_requests;
    } else {
      auto source = make_workload_source(cell.workload, config, cell.k);
      const Instance& ctx = source->context();
      record.n = ctx.n_pages();
      record.m = ctx.blocks.n_blocks();
      record.beta = ctx.blocks.beta();
      SimOptions options;
      options.seed = config.seed;
      if (config.mrc) options.mrc_ks = config.ks;
      // Cells fold event counters into the shared registry;
      // cell_begin/cell_end bracket the cell in the trace.
      options.metrics = config.metrics;
      const RunResult r = simulate(*source, *policy, options);
      record.requests = r.requests;
      record.misses = r.misses;
      record.eviction_cost = r.eviction_cost;
      record.fetch_cost = r.fetch_cost;
      record.cost = r.eviction_cost + r.fetch_cost;
      record.step_cost_p50 = r.step_cost_p50;
      record.step_cost_p90 = r.step_cost_p90;
      record.step_cost_p99 = r.step_cost_p99;
      record.step_cost_max = r.step_cost_max;
      record.miss_curve = r.miss_curve;
    }
    record.wall_ms = cell_clock.millis();
    record.rps = record.wall_ms > 0
                     ? static_cast<double>(record.requests) /
                           (record.wall_ms / 1000.0)
                     : 0.0;
    {
      MutexLock lock(totals_mutex);
      totals.requests += record.requests;
    }
    if (config.metrics != nullptr) {
      config.metrics->counter("sweep_cells_total").inc();
      config.metrics->counter("sweep_requests_total")
          .inc(static_cast<std::uint64_t>(record.requests));
    }
    if (config.trace != nullptr) {
      obs::TraceEvent e;
      e.type = "cell_end";
      e.name = cell_name;
      e.num("dur_ms", record.wall_ms)
          .num("requests", static_cast<double>(record.requests))
          .num("cost", record.cost)
          .num("rps", record.rps);
      config.trace->emit(e);
    }
    if (sink) sink(record);
  });

  totals.wall_ms = sweep_clock.millis();
  totals.rps = totals.wall_ms > 0 ? static_cast<double>(totals.requests) /
                                        (totals.wall_ms / 1000.0)
                                  : 0.0;
  if (config.metrics != nullptr)
    config.metrics->gauge("sweep_wall_ms").set(totals.wall_ms);
  sweep_span.num("cells", static_cast<double>(totals.cells));
  sweep_span.num("requests", static_cast<double>(totals.requests));
  sweep_span.end();
  return totals;
}

}  // namespace bac::driver
