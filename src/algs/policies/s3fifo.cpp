#include "algs/policies/modern.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.hpp"

namespace bac {

namespace {

/// "S3FIFO" for the default knob, "S3FIFO@<frac>" otherwise, so sweep
/// rows scanning the knob stay distinguishable.
std::string knob_name(const char* base, double frac, double def) {
  if (frac == def) return base;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s@%g", base, frac);
  return buf;
}

std::uint8_t capped_inc(std::uint8_t f) {
  return static_cast<std::uint8_t>(std::min<int>(f + 1, 3));
}

}  // namespace

// --- page-level S3-FIFO -----------------------------------------------------

S3FifoPolicy::S3FifoPolicy(double small_frac) : small_frac_(small_frac) {}

std::string S3FifoPolicy::name() const {
  return knob_name("S3FIFO", small_frac_, kDefaultSmallFrac);
}

void S3FifoPolicy::reset(const Instance& inst) {
  const int n = inst.n_pages();
  small_target_ =
      std::max(1, static_cast<int>(small_frac_ * static_cast<double>(inst.k)));
  queues_.reset(n, 2);
  // The ghost remembers as many evicted ids as pages fit in the cache.
  ghost_.reset(n, inst.k);
  freq_.reset(n, 0);
  ghost_hits_ = small_promotions_ = main_reinserts_ = 0;
}

void S3FifoPolicy::on_request(Time /*t*/, PageId p, CacheOps& cache) {
  if (cache.contains(p)) {
    freq_[p] = capped_inc(freq_[p]);
    return;
  }
  while (cache.size() >= cache.capacity()) evict_one(cache);
  if (ghost_.contains(p)) {
    // A recently evicted page came back: it earned the main queue.
    ghost_.erase(p);
    ++ghost_hits_;
    queues_.push_back(kMain, p);
  } else {
    queues_.push_back(kSmall, p);
  }
  freq_[p] = 0;
  cache.fetch(p);
}

void S3FifoPolicy::evict_one(CacheOps& cache) {
  for (;;) {
    bool use_small =
        queues_.size(kSmall) >= small_target_ || queues_.size(kMain) == 0;
    if (use_small && queues_.size(kSmall) == 0) use_small = false;
    if (use_small) {
      const std::int32_t h = queues_.front(kSmall);
      if (freq_[h] > 1) {
        // Re-accessed while probationary: promote, frequency restarts.
        queues_.move_back(h, kMain);
        freq_[h] = 0;
        ++small_promotions_;
        continue;
      }
      queues_.erase(h);
      ghost_.insert(h);
      cache.evict(h);
      return;
    }
    const std::int32_t h = queues_.front(kMain);
    if (freq_[h] > 0) {
      freq_[h] = static_cast<std::uint8_t>(freq_[h] - 1);
      queues_.move_back(h, kMain);  // second chance, one life spent
      ++main_reinserts_;
      continue;
    }
    queues_.erase(h);
    cache.evict(h);
    return;
  }
}

void S3FifoPolicy::export_metrics(obs::MetricRegistry& registry) const {
  registry.counter("policy_ghost_hits_total")
      .inc(static_cast<std::uint64_t>(ghost_hits_));
  registry.counter("policy_small_promotions_total")
      .inc(static_cast<std::uint64_t>(small_promotions_));
  registry.counter("policy_main_reinserts_total")
      .inc(static_cast<std::uint64_t>(main_reinserts_));
}

// --- block-level S3-FIFO ----------------------------------------------------

BlockS3FifoPolicy::BlockS3FifoPolicy(double small_frac)
    : small_frac_(small_frac) {}

std::string BlockS3FifoPolicy::name() const {
  return knob_name("BlockS3FIFO", small_frac_, S3FifoPolicy::kDefaultSmallFrac);
}

void BlockS3FifoPolicy::reset(const Instance& inst) {
  const int m = inst.blocks.n_blocks();
  // Queue and ghost budgets count blocks; a "slot" is one cache's worth
  // of whole beta-sized blocks.
  const int block_slots = std::max(1, inst.k / std::max(1, inst.blocks.beta()));
  small_target_ = std::max(
      1, static_cast<int>(small_frac_ * static_cast<double>(block_slots)));
  queues_.reset(m, 2);
  ghost_.reset(m, block_slots);
  freq_.reset(m, 0);
  cached_count_.reset(m, 0);
  ghost_hits_ = small_promotions_ = main_reinserts_ = 0;
  block_flushes_ = 0;
}

void BlockS3FifoPolicy::on_request(Time /*t*/, PageId p, CacheOps& cache) {
  const BlockId b = cache.blocks().block_of(p);
  if (cache.contains(p)) {
    freq_[b] = capped_inc(freq_[b]);
    return;
  }
  // Detach the requested block while serving: the flush loop can never
  // pick it, and it re-enters at the tail of its segment (like BlockLRU's
  // detach-and-reappend, FIFO position refreshed).
  int seg;
  if (queues_.contains(b)) {
    seg = queues_.segment_of(b);
    queues_.erase(b);
    freq_[b] = capped_inc(freq_[b]);  // a miss still touches the block
  } else if (ghost_.contains(b)) {
    ghost_.erase(b);
    ++ghost_hits_;
    seg = kMain;
    freq_[b] = 0;
  } else {
    seg = kSmall;
    freq_[b] = 0;
  }
  cache.fetch(p);
  cached_count_[b] += 1;
  while (cache.size() > cache.capacity()) {
    if (queues_.size(kSmall) + queues_.size(kMain) == 0) {
      // Only the requested block remains: shed its other pages.
      cached_count_[b] -= cache.flush_block(b, p);
      break;
    }
    evict_one_block(cache);
  }
  queues_.push_back(seg, b);
}

void BlockS3FifoPolicy::evict_one_block(CacheOps& cache) {
  for (;;) {
    bool use_small =
        queues_.size(kSmall) >= small_target_ || queues_.size(kMain) == 0;
    if (use_small && queues_.size(kSmall) == 0) use_small = false;
    std::int32_t h;
    if (use_small) {
      h = queues_.front(kSmall);
      if (freq_[h] > 1) {
        queues_.move_back(h, kMain);
        freq_[h] = 0;
        ++small_promotions_;
        continue;
      }
      queues_.erase(h);
      ghost_.insert(h);
    } else {
      h = queues_.front(kMain);
      if (freq_[h] > 0) {
        freq_[h] = static_cast<std::uint8_t>(freq_[h] - 1);
        queues_.move_back(h, kMain);
        ++main_reinserts_;
        continue;
      }
      queues_.erase(h);
    }
    cached_count_[h] -= cache.flush_block(h);
    ++block_flushes_;
    return;
  }
}

void BlockS3FifoPolicy::export_metrics(obs::MetricRegistry& registry) const {
  registry.counter("policy_ghost_hits_total")
      .inc(static_cast<std::uint64_t>(ghost_hits_));
  registry.counter("policy_small_promotions_total")
      .inc(static_cast<std::uint64_t>(small_promotions_));
  registry.counter("policy_main_reinserts_total")
      .inc(static_cast<std::uint64_t>(main_reinserts_));
  registry.counter("policy_block_flushes_total")
      .inc(static_cast<std::uint64_t>(block_flushes_));
}

}  // namespace bac
