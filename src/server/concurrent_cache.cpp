#include "server/concurrent_cache.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace bac::server {

namespace {

/// Stateless block -> shard hash. splitmix64 scrambles the id so
/// contiguous block ranges (the common layout for extent-grouped traces)
/// spread evenly instead of striping.
int shard_of_block(BlockId b, int n_shards) {
  std::uint64_t state = static_cast<std::uint64_t>(b) + 1;
  return static_cast<int>(splitmix64(state) %
                          static_cast<std::uint64_t>(n_shards));
}

}  // namespace

int ConcurrentCache::max_shards(const Instance& context) {
  const int beta = context.blocks.beta();
  if (beta <= 0 || context.k < beta) return 1;
  return context.k / beta;
}

ConcurrentCache::ConcurrentCache(const Instance& context,
                                 const OnlinePolicy& prototype, int n_shards,
                                 std::uint64_t seed)
    : context_{context.blocks, {}, context.k} {
  context_.validate();
  if (n_shards < 1)
    throw std::invalid_argument("ConcurrentCache: n_shards must be >= 1");
  if (prototype.requires_future())
    throw std::invalid_argument(
        "ConcurrentCache: offline policy " + prototype.name() +
        " cannot serve a live request stream");
  const int base = context_.k / n_shards;
  if (base < context_.blocks.beta())
    throw std::invalid_argument(
        "ConcurrentCache: k / n_shards = " + std::to_string(base) +
        " is below beta = " + std::to_string(context_.blocks.beta()) +
        " (at most max_shards() = " + std::to_string(max_shards(context_)) +
        " shards for this instance)");

  const int remainder = context_.k % n_shards;
  header_lo_ = std::make_unique<const Instance>(
      Instance{context_.blocks, {}, base});
  // A header is a full BlockMap copy (O(n_pages)); only materialize the
  // base+1 variant when some shard actually takes a remainder page.
  if (remainder > 0)
    header_hi_ = std::make_unique<const Instance>(
        Instance{context_.blocks, {}, base + 1});

  const int n_blocks = context_.blocks.n_blocks();
  std::vector<std::int32_t> block_shard(static_cast<std::size_t>(n_blocks));
  for (BlockId b = 0; b < n_blocks; ++b)
    block_shard[static_cast<std::size_t>(b)] =
        static_cast<std::int32_t>(shard_of_block(b, n_shards));
  page_shard_.resize(static_cast<std::size_t>(context_.n_pages()));
  for (PageId p = 0; p < context_.n_pages(); ++p)
    page_shard_[static_cast<std::size_t>(p)] = block_shard[
        static_cast<std::size_t>(context_.blocks.block_of(p))];

  shards_.reserve(static_cast<std::size_t>(n_shards));
  for (int s = 0; s < n_shards; ++s) {
    auto policy = prototype.clone();
    if (!policy)
      throw std::invalid_argument(
          "ConcurrentCache: policy " + prototype.name() +
          " is not cloneable (clone() returned nullptr); every shard "
          "needs an independent instance");
    const Instance& header = s < remainder ? *header_hi_ : *header_lo_;
    shards_.push_back(std::make_unique<CacheShard>(
        header, std::move(policy), seed + static_cast<std::uint64_t>(s)));
  }
}

void ConcurrentCache::check_page(PageId p) const {
  if (p < 0 || p >= context_.n_pages())
    throw std::out_of_range("ConcurrentCache: page " + std::to_string(p) +
                            " outside [0, " +
                            std::to_string(context_.n_pages()) + ")");
}

bool ConcurrentCache::get(PageId p) {
  check_page(p);
  return shards_[static_cast<std::size_t>(
                     page_shard_[static_cast<std::size_t>(p)])]
      ->get(p);
}

long long ConcurrentCache::get_batch(const PageId* ps, int n) {
  if (n <= 0) return 0;
  for (int i = 0; i < n; ++i) check_page(ps[i]);

  // Regroup the batch by owning shard with a stable counting sort, so
  // each shard is locked once per batch and still sees its requests in
  // batch order. The scratch is per calling thread and only grows, so
  // serving allocates nothing once it has seen the largest batch;
  // `offset` is indexed by shard and is all zero between batches, so a
  // batch touches only the entries of the shards it hits.
  struct Group {
    std::int32_t shard;
    int end;  ///< one past the group's last request in `sorted`
  };
  thread_local struct {
    std::vector<int> offset;
    std::vector<PageId> sorted;
    std::vector<Group> groups;
  } scratch;
  if (scratch.offset.size() < shards_.size())
    scratch.offset.resize(shards_.size(), 0);
  if (scratch.sorted.size() < static_cast<std::size_t>(n))
    scratch.sorted.resize(static_cast<std::size_t>(n));
  int* const offset = scratch.offset.data();
  const std::int32_t* const shard = page_shard_.data();
  std::vector<Group>& groups = scratch.groups;
  groups.clear();
  for (int i = 0; i < n; ++i) {
    const std::int32_t s = shard[ps[i]];
    if (offset[s]++ == 0) groups.push_back({s, 0});
  }
  std::sort(groups.begin(), groups.end(),
            [](const Group& a, const Group& b) { return a.shard < b.shard; });
  int start = 0;
  for (Group& g : groups) {
    const int size = offset[g.shard];
    offset[g.shard] = start;
    start += size;
    g.end = start;
  }
  for (int i = 0; i < n; ++i)
    scratch.sorted[static_cast<std::size_t>(offset[shard[ps[i]]]++)] = ps[i];
  // Clear the offsets before serving: a throwing shard must leave the
  // scratch ready for this thread's next batch.
  for (const Group& g : groups) offset[g.shard] = 0;

  long long hits = 0;
  int begin = 0;
  for (const Group& g : groups) {
    hits += shards_[static_cast<std::size_t>(g.shard)]->get_batch(
        scratch.sorted.data() + begin, g.end - begin);
    begin = g.end;
  }
  return hits;
}

int ConcurrentCache::shard_of(PageId p) const {
  check_page(p);
  return page_shard_[static_cast<std::size_t>(p)];
}

ShardSnapshot ConcurrentCache::shard_snapshot(int shard) const {
  return shards_.at(static_cast<std::size_t>(shard))->snapshot();
}

ServerStats ConcurrentCache::stats() const {
  ServerStats out;
  for (const auto& shard : shards_) out += shard->snapshot();
  out.summarize_latency();
  return out;
}

void ConcurrentCache::export_metrics(obs::MetricRegistry& registry) const {
  const ServerStats s = stats();
  // Every counter here is an *event* count: deterministic under any
  // dispatch that preserves per-shard order, hence bit-identical across
  // thread counts (the concurrency oracle and CI metrics-smoke assert
  // this). Latency histograms are wall-clock and deliberately excluded
  // from that invariant.
  registry.counter("server_requests_total").inc(
      static_cast<std::uint64_t>(s.requests));
  registry.counter("server_hits_total").inc(static_cast<std::uint64_t>(s.hits));
  registry.counter("server_misses_total").inc(
      static_cast<std::uint64_t>(s.misses));
  registry.counter("server_eviction_cost_total").inc(
      static_cast<std::uint64_t>(s.eviction_cost));
  registry.counter("server_fetch_cost_total").inc(
      static_cast<std::uint64_t>(s.fetch_cost));
  registry.counter("server_evict_block_events_total").inc(
      static_cast<std::uint64_t>(s.evict_block_events));
  registry.counter("server_fetch_block_events_total").inc(
      static_cast<std::uint64_t>(s.fetch_block_events));
  registry.counter("server_evicted_pages_total").inc(
      static_cast<std::uint64_t>(s.evicted_pages));
  registry.counter("server_fetched_pages_total").inc(
      static_cast<std::uint64_t>(s.fetched_pages));
  registry.gauge("server_cached_pages").set(
      static_cast<double>(s.cached_pages));
  registry.merge_histogram("server_latency_us", s.latency_us);
  registry.merge_histogram("server_lock_wait_us", s.lock_wait_us);
  // Per-shard policy structural counters (ghost hits, hand sweeps, ...)
  // fold in as sums over shards: shard assignment is by block, so the
  // sums inherit the same thread-count invariance as the server_*
  // counters above.
  for (const auto& shard : shards_) shard->export_policy_metrics(registry);
}

}  // namespace bac::server
