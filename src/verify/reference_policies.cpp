#include "verify/reference_policies.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <list>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/simulator.hpp"

namespace bac::verify {

namespace {

// --- the frozen std::set policies ------------------------------------------
// Each class is the pre-flat-index implementation from algs/policies/,
// kept verbatim (modulo the Ref name) as the equivalence specification.

class RefLruPolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "RefLRU"; }
  void reset(const Instance& inst) override {
    last_used_.assign(static_cast<std::size_t>(inst.n_pages()), 0);
    by_recency_.clear();
  }
  void on_request(Time t, PageId p, CacheOps& cache) override {
    if (cache.contains(p)) {
      by_recency_.erase({last_used_[static_cast<std::size_t>(p)], p});
    } else {
      if (cache.size() >= cache.capacity()) {
        const auto victim = *by_recency_.begin();
        by_recency_.erase(by_recency_.begin());
        cache.evict(victim.second);
      }
      cache.fetch(p);
    }
    last_used_[static_cast<std::size_t>(p)] = t;
    by_recency_.insert({t, p});
  }

 private:
  std::vector<Time> last_used_;
  std::set<std::pair<Time, PageId>> by_recency_;
};

class RefFifoPolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "RefFIFO"; }
  void reset(const Instance& inst) override {
    arrival_.assign(static_cast<std::size_t>(inst.n_pages()), 0);
    by_arrival_.clear();
  }
  void on_request(Time t, PageId p, CacheOps& cache) override {
    if (cache.contains(p)) return;
    if (cache.size() >= cache.capacity()) {
      const auto victim = *by_arrival_.begin();
      by_arrival_.erase(by_arrival_.begin());
      cache.evict(victim.second);
    }
    cache.fetch(p);
    arrival_[static_cast<std::size_t>(p)] = t;
    by_arrival_.insert({t, p});
  }

 private:
  std::vector<Time> arrival_;
  std::set<std::pair<Time, PageId>> by_arrival_;
};

class RefLfuPolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "RefLFU"; }
  void reset(const Instance& inst) override {
    freq_.assign(static_cast<std::size_t>(inst.n_pages()), 0);
    by_freq_.clear();
  }
  void on_request(Time /*t*/, PageId p, CacheOps& cache) override {
    auto& f = freq_[static_cast<std::size_t>(p)];
    if (cache.contains(p)) {
      by_freq_.erase({f, p});
      ++f;
      by_freq_.insert({f, p});
      return;
    }
    if (cache.size() >= cache.capacity()) {
      const auto victim = *by_freq_.begin();
      by_freq_.erase(by_freq_.begin());
      cache.evict(victim.second);
    }
    cache.fetch(p);
    ++f;
    by_freq_.insert({f, p});
  }

 private:
  std::vector<long long> freq_;
  std::set<std::pair<long long, PageId>> by_freq_;
};

class RefBeladyPolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "RefBelady"; }
  [[nodiscard]] bool requires_future() const override { return true; }
  void reset(const Instance& inst) override {
    const auto n = static_cast<std::size_t>(inst.n_pages());
    occurrences_.assign(n, {});
    cursor_.assign(n, 0);
    by_next_.clear();
    for (Time t = 1; t <= inst.horizon(); ++t)
      occurrences_[static_cast<std::size_t>(inst.request_at(t))].push_back(t);
  }
  void on_request(Time /*t*/, PageId p, CacheOps& cache) override {
    const bool hit = cache.contains(p);
    if (hit) by_next_.erase({next_use(p), p});
    ++cursor_[static_cast<std::size_t>(p)];
    if (!hit) {
      if (cache.size() >= cache.capacity()) {
        const auto victim = *by_next_.rbegin();  // farthest next use
        by_next_.erase(std::prev(by_next_.end()));
        cache.evict(victim.second);
      }
      cache.fetch(p);
    }
    by_next_.insert({next_use(p), p});
  }

 private:
  [[nodiscard]] Time next_use(PageId p) const {
    const auto& occ = occurrences_[static_cast<std::size_t>(p)];
    const std::size_t c = cursor_[static_cast<std::size_t>(p)];
    return c < occ.size() ? occ[c] : static_cast<Time>(1) << 30;
  }

  std::vector<std::vector<Time>> occurrences_;
  std::vector<std::size_t> cursor_;
  std::set<std::pair<Time, PageId>> by_next_;
};

class RefGreedyDualPolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "RefGreedyDual"; }
  void reset(const Instance& inst) override {
    blocks_ = &inst.blocks;
    offset_ = 0;
    credit_.assign(static_cast<std::size_t>(inst.n_pages()), 0.0);
    by_credit_.clear();
  }
  void on_request(Time /*t*/, PageId p, CacheOps& cache) override {
    const double cost = blocks_->cost(blocks_->block_of(p));
    if (cache.contains(p)) {
      by_credit_.erase({credit_[static_cast<std::size_t>(p)], p});
      credit_[static_cast<std::size_t>(p)] = offset_ + cost;
      by_credit_.insert({credit_[static_cast<std::size_t>(p)], p});
      return;
    }
    if (cache.size() >= cache.capacity()) {
      const auto victim = *by_credit_.begin();
      by_credit_.erase(by_credit_.begin());
      offset_ = victim.first;
      cache.evict(victim.second);
    }
    cache.fetch(p);
    credit_[static_cast<std::size_t>(p)] = offset_ + cost;
    by_credit_.insert({credit_[static_cast<std::size_t>(p)], p});
  }

 private:
  const BlockMap* blocks_ = nullptr;
  double offset_ = 0;
  std::vector<double> credit_;
  std::set<std::pair<double, PageId>> by_credit_;
};

class RefBlockLruPolicy final : public OnlinePolicy {
 public:
  explicit RefBlockLruPolicy(bool prefetch) : prefetch_(prefetch) {}
  [[nodiscard]] std::string name() const override {
    return prefetch_ ? "RefBlockLRU+Prefetch" : "RefBlockLRU";
  }
  void reset(const Instance& inst) override {
    const auto m = static_cast<std::size_t>(inst.blocks.n_blocks());
    block_used_.assign(m, 0);
    by_recency_.clear();
    cached_count_.assign(m, 0);
  }
  void on_request(Time t, PageId p, CacheOps& cache) override {
    const BlockId b = cache.blocks().block_of(p);
    touch(b, t);
    if (!cache.contains(p)) {
      int fetched = 0;
      if (prefetch_) {
        for (PageId q : cache.blocks().pages_in(b)) {
          if (!cache.contains(q)) {
            cache.fetch(q);
            ++fetched;
          }
        }
      } else {
        cache.fetch(p);
        fetched = 1;
      }
      cached_count_[static_cast<std::size_t>(b)] += fetched;
      while (cache.size() > cache.capacity()) {
        auto it = by_recency_.begin();
        const BlockId victim = it->second;
        by_recency_.erase(it);
        const int evicted = cache.flush_block(victim);
        note_evicted(victim, evicted);
        if (cache.size() > cache.capacity() &&
            cached_count_[static_cast<std::size_t>(b)] > 0 &&
            by_recency_.empty()) {
          const int shed = cache.flush_block(b, p);
          note_evicted(b, shed);
        }
      }
    }
    by_recency_.insert({t, b});
  }

 private:
  void touch(BlockId b, Time t) {
    if (cached_count_[static_cast<std::size_t>(b)] > 0)
      by_recency_.erase({block_used_[static_cast<std::size_t>(b)], b});
    block_used_[static_cast<std::size_t>(b)] = t;
  }
  void note_evicted(BlockId b, int n_evicted) {
    cached_count_[static_cast<std::size_t>(b)] -= n_evicted;
  }

  bool prefetch_;
  std::vector<Time> block_used_;
  std::set<std::pair<Time, BlockId>> by_recency_;
  std::vector<int> cached_count_;
};

// --- the frozen modern-policy twins -----------------------------------------
// Boring std::deque/std::list mirrors of the S3-FIFO/SIEVE/ARC semantics
// in algs/policies/modern.hpp. Same decisions, textbook containers.

/// The GhostTable contract in deque form: remembers the most recent
/// `capacity` inserted ids, dropping the oldest when full.
class RefGhost {
 public:
  void reset(int n, int capacity) {
    in_.assign(static_cast<std::size_t>(n), 0);
    order_.clear();
    capacity_ = capacity;
  }
  [[nodiscard]] bool contains(std::int32_t id) const {
    return in_[static_cast<std::size_t>(id)] != 0;
  }
  [[nodiscard]] int size() const { return static_cast<int>(order_.size()); }
  void insert(std::int32_t id) {
    if (contains(id)) {
      order_.erase(std::find(order_.begin(), order_.end(), id));
    } else if (capacity_ <= 0) {
      return;
    } else if (static_cast<int>(order_.size()) >= capacity_) {
      in_[static_cast<std::size_t>(order_.front())] = 0;
      order_.pop_front();
    }
    order_.push_back(id);
    in_[static_cast<std::size_t>(id)] = 1;
  }
  void erase(std::int32_t id) {
    if (!contains(id)) return;
    order_.erase(std::find(order_.begin(), order_.end(), id));
    in_[static_cast<std::size_t>(id)] = 0;
  }
  void pop_front() {
    if (order_.empty()) return;
    in_[static_cast<std::size_t>(order_.front())] = 0;
    order_.pop_front();
  }

 private:
  std::vector<char> in_;
  std::deque<std::int32_t> order_;
  int capacity_ = 0;
};

class RefS3FifoPolicy final : public OnlinePolicy {
 public:
  explicit RefS3FifoPolicy(double small_frac) : small_frac_(small_frac) {}
  [[nodiscard]] std::string name() const override { return "RefS3FIFO"; }
  void reset(const Instance& inst) override {
    const auto n = static_cast<std::size_t>(inst.n_pages());
    small_target_ = std::max(
        1, static_cast<int>(small_frac_ * static_cast<double>(inst.k)));
    small_.clear();
    main_.clear();
    ghost_.reset(inst.n_pages(), inst.k);
    freq_.assign(n, 0);
  }
  void on_request(Time /*t*/, PageId p, CacheOps& cache) override {
    auto& f = freq_[static_cast<std::size_t>(p)];
    if (cache.contains(p)) {
      f = std::min(f + 1, 3);
      return;
    }
    while (cache.size() >= cache.capacity()) evict_one(cache);
    if (ghost_.contains(p)) {
      ghost_.erase(p);
      main_.push_back(p);
    } else {
      small_.push_back(p);
    }
    f = 0;
    cache.fetch(p);
  }

 private:
  void evict_one(CacheOps& cache) {
    for (;;) {
      bool use_small =
          static_cast<int>(small_.size()) >= small_target_ || main_.empty();
      if (use_small && small_.empty()) use_small = false;
      if (use_small) {
        const PageId h = small_.front();
        auto& f = freq_[static_cast<std::size_t>(h)];
        small_.pop_front();
        if (f > 1) {
          main_.push_back(h);
          f = 0;
          continue;
        }
        ghost_.insert(h);
        cache.evict(h);
        return;
      }
      const PageId h = main_.front();
      auto& f = freq_[static_cast<std::size_t>(h)];
      main_.pop_front();
      if (f > 0) {
        --f;
        main_.push_back(h);
        continue;
      }
      cache.evict(h);
      return;
    }
  }

  double small_frac_;
  int small_target_ = 1;
  std::deque<PageId> small_;
  std::deque<PageId> main_;
  RefGhost ghost_;
  std::vector<int> freq_;
};

class RefSievePolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "RefSIEVE"; }
  void reset(const Instance& inst) override {
    order_.clear();
    visited_.assign(static_cast<std::size_t>(inst.n_pages()), 0);
    hand_ = order_.end();
  }
  void on_request(Time /*t*/, PageId p, CacheOps& cache) override {
    if (cache.contains(p)) {
      visited_[static_cast<std::size_t>(p)] = 1;
      return;
    }
    if (cache.size() >= cache.capacity()) {
      auto it = hand_ == order_.end() ? order_.begin() : hand_;
      while (visited_[static_cast<std::size_t>(*it)] != 0) {
        visited_[static_cast<std::size_t>(*it)] = 0;
        ++it;
        if (it == order_.end()) it = order_.begin();
      }
      const PageId victim = *it;
      hand_ = order_.erase(it);  // may be end(): resume from the oldest
      cache.evict(victim);
    }
    order_.push_back(p);
    visited_[static_cast<std::size_t>(p)] = 0;
    cache.fetch(p);
  }

 private:
  std::list<PageId> order_;  // front = oldest
  std::vector<char> visited_;
  std::list<PageId>::iterator hand_ = order_.end();
};

class RefArcPolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "RefARC"; }
  void reset(const Instance& inst) override {
    c_ = inst.k;
    p_ = 0;
    t1_.clear();
    t2_.clear();
    in_t1_.assign(static_cast<std::size_t>(inst.n_pages()), 0);
    in_t2_.assign(static_cast<std::size_t>(inst.n_pages()), 0);
    b1_.reset(inst.n_pages(), c_);
    b2_.reset(inst.n_pages(), 2 * c_);
  }
  void on_request(Time /*t*/, PageId p, CacheOps& cache) override {
    const auto i = static_cast<std::size_t>(p);
    if (in_t1_[i] != 0 || in_t2_[i] != 0) {  // Case I
      if (in_t1_[i] != 0) {
        t1_.erase(std::find(t1_.begin(), t1_.end(), p));
        in_t1_[i] = 0;
      } else {
        t2_.erase(std::find(t2_.begin(), t2_.end(), p));
      }
      t2_.push_back(p);
      in_t2_[i] = 1;
      return;
    }
    if (b1_.contains(p)) {  // Case II
      const int delta = std::max(1, b2_size() / b1_size());
      p_ = std::min(c_, p_ + delta);
      b1_.erase(p);
      replace(false, cache);
      t2_.push_back(p);
      in_t2_[i] = 1;
      cache.fetch(p);
      return;
    }
    if (b2_.contains(p)) {  // Case III
      const int delta = std::max(1, b1_size() / b2_size());
      p_ = std::max(0, p_ - delta);
      b2_.erase(p);
      replace(true, cache);
      t2_.push_back(p);
      in_t2_[i] = 1;
      cache.fetch(p);
      return;
    }
    // Case IV
    const int t1 = static_cast<int>(t1_.size());
    const int l1 = t1 + b1_size();
    const int l2 = static_cast<int>(t2_.size()) + b2_size();
    if (l1 == c_) {
      if (t1 < c_) {
        b1_.pop_front();
        replace(false, cache);
      } else {
        const PageId victim = t1_.front();
        t1_.pop_front();
        in_t1_[static_cast<std::size_t>(victim)] = 0;
        cache.evict(victim);
      }
    } else if (l1 < c_ && l1 + l2 >= c_) {
      if (l1 + l2 >= 2 * c_) b2_.pop_front();
      replace(false, cache);
    }
    t1_.push_back(p);
    in_t1_[i] = 1;
    cache.fetch(p);
  }

 private:
  [[nodiscard]] int b1_size() const { return b1_.size(); }
  [[nodiscard]] int b2_size() const { return b2_.size(); }
  void replace(bool requested_in_b2, CacheOps& cache) {
    const int t1 = static_cast<int>(t1_.size());
    const bool from_t1 =
        t1 >= 1 && (t1 > p_ || (requested_in_b2 && t1 == p_));
    if (from_t1 || t2_.empty()) {
      if (t1_.empty()) return;
      const PageId victim = t1_.front();
      t1_.pop_front();
      in_t1_[static_cast<std::size_t>(victim)] = 0;
      b1_.insert(victim);
      cache.evict(victim);
    } else {
      const PageId victim = t2_.front();
      t2_.pop_front();
      in_t2_[static_cast<std::size_t>(victim)] = 0;
      b2_.insert(victim);
      cache.evict(victim);
    }
  }

  int c_ = 0;
  int p_ = 0;
  std::list<PageId> t1_;  // front = LRU
  std::list<PageId> t2_;
  std::vector<char> in_t1_;
  std::vector<char> in_t2_;
  RefGhost b1_;
  RefGhost b2_;
};

class RefBlockS3FifoPolicy final : public OnlinePolicy {
 public:
  explicit RefBlockS3FifoPolicy(double small_frac)
      : small_frac_(small_frac) {}
  [[nodiscard]] std::string name() const override { return "RefBlockS3FIFO"; }
  void reset(const Instance& inst) override {
    const auto m = static_cast<std::size_t>(inst.blocks.n_blocks());
    const int block_slots =
        std::max(1, inst.k / std::max(1, inst.blocks.beta()));
    small_target_ = std::max(
        1, static_cast<int>(small_frac_ * static_cast<double>(block_slots)));
    small_.clear();
    main_.clear();
    ghost_.reset(inst.blocks.n_blocks(), block_slots);
    freq_.assign(m, 0);
    cached_count_.assign(m, 0);
  }
  void on_request(Time /*t*/, PageId p, CacheOps& cache) override {
    const BlockId b = cache.blocks().block_of(p);
    auto& f = freq_[static_cast<std::size_t>(b)];
    if (cache.contains(p)) {
      f = std::min(f + 1, 3);
      return;
    }
    bool to_main;  // segment the detached block re-enters
    const auto in_small = std::find(small_.begin(), small_.end(), b);
    if (in_small != small_.end()) {
      small_.erase(in_small);
      to_main = false;
      f = std::min(f + 1, 3);
    } else {
      const auto in_main = std::find(main_.begin(), main_.end(), b);
      if (in_main != main_.end()) {
        main_.erase(in_main);
        to_main = true;
        f = std::min(f + 1, 3);
      } else if (ghost_.contains(b)) {
        ghost_.erase(b);
        to_main = true;
        f = 0;
      } else {
        to_main = false;
        f = 0;
      }
    }
    cache.fetch(p);
    cached_count_[static_cast<std::size_t>(b)] += 1;
    while (cache.size() > cache.capacity()) {
      if (small_.empty() && main_.empty()) {
        cached_count_[static_cast<std::size_t>(b)] -=
            cache.flush_block(b, p);
        break;
      }
      evict_one_block(cache);
    }
    if (to_main) main_.push_back(b);
    else small_.push_back(b);
  }

 private:
  void evict_one_block(CacheOps& cache) {
    for (;;) {
      bool use_small =
          static_cast<int>(small_.size()) >= small_target_ || main_.empty();
      if (use_small && small_.empty()) use_small = false;
      BlockId h;
      if (use_small) {
        h = small_.front();
        auto& f = freq_[static_cast<std::size_t>(h)];
        small_.pop_front();
        if (f > 1) {
          main_.push_back(h);
          f = 0;
          continue;
        }
        ghost_.insert(h);
      } else {
        h = main_.front();
        auto& f = freq_[static_cast<std::size_t>(h)];
        main_.pop_front();
        if (f > 0) {
          --f;
          main_.push_back(h);
          continue;
        }
      }
      cached_count_[static_cast<std::size_t>(h)] -= cache.flush_block(h);
      return;
    }
  }

  double small_frac_;
  int small_target_ = 1;
  std::deque<BlockId> small_;
  std::deque<BlockId> main_;
  RefGhost ghost_;
  std::vector<int> freq_;
  std::vector<int> cached_count_;
};

class RefBlockSievePolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "RefBlockSIEVE"; }
  void reset(const Instance& inst) override {
    const auto m = static_cast<std::size_t>(inst.blocks.n_blocks());
    order_.clear();
    visited_.assign(m, 0);
    resident_.assign(m, 0);
    cached_count_.assign(m, 0);
    hand_ = order_.end();
  }
  void on_request(Time /*t*/, PageId p, CacheOps& cache) override {
    const BlockId b = cache.blocks().block_of(p);
    const auto bi = static_cast<std::size_t>(b);
    if (cache.contains(p)) {
      visited_[bi] = 1;
      return;
    }
    if (resident_[bi] == 0) {
      order_.push_back(b);
      resident_[bi] = 1;
      visited_[bi] = 0;
    } else {
      visited_[bi] = 1;
    }
    cache.fetch(p);
    cached_count_[bi] += 1;
    while (cache.size() > cache.capacity()) {
      if (order_.size() == 1) {
        cached_count_[bi] -= cache.flush_block(b, p);
        break;
      }
      auto it = hand_ == order_.end() ? order_.begin() : hand_;
      while (*it == b || visited_[static_cast<std::size_t>(*it)] != 0) {
        if (*it != b) visited_[static_cast<std::size_t>(*it)] = 0;
        ++it;
        if (it == order_.end()) it = order_.begin();
      }
      const BlockId victim = *it;
      hand_ = order_.erase(it);
      resident_[static_cast<std::size_t>(victim)] = 0;
      cached_count_[static_cast<std::size_t>(victim)] -=
          cache.flush_block(victim);
    }
  }

 private:
  std::list<BlockId> order_;  // front = oldest
  std::vector<char> visited_;
  std::vector<char> resident_;
  std::vector<int> cached_count_;
  std::list<BlockId>::iterator hand_ = order_.end();
};

// --- run comparison ---------------------------------------------------------

std::vector<PageId> sorted(std::vector<PageId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

std::vector<std::pair<std::string, std::unique_ptr<OnlinePolicy>>>
reference_policy_twins() {
  std::vector<std::pair<std::string, std::unique_ptr<OnlinePolicy>>> twins;
  twins.emplace_back("lru", std::make_unique<RefLruPolicy>());
  twins.emplace_back("fifo", std::make_unique<RefFifoPolicy>());
  twins.emplace_back("lfu", std::make_unique<RefLfuPolicy>());
  twins.emplace_back("belady", std::make_unique<RefBeladyPolicy>());
  twins.emplace_back("greedy_dual", std::make_unique<RefGreedyDualPolicy>());
  twins.emplace_back("block_lru",
                     std::make_unique<RefBlockLruPolicy>(false));
  twins.emplace_back("block_lru_prefetch",
                     std::make_unique<RefBlockLruPolicy>(true));
  // The modern zoo, at the registry defaults plus one off-default knob so
  // the parameterized-spec path is fuzzed too (0.25 is "s3fifo@0.25").
  twins.emplace_back("s3fifo", std::make_unique<RefS3FifoPolicy>(0.1));
  twins.emplace_back("s3fifo@0.25", std::make_unique<RefS3FifoPolicy>(0.25));
  twins.emplace_back("sieve", std::make_unique<RefSievePolicy>());
  twins.emplace_back("arc", std::make_unique<RefArcPolicy>());
  twins.emplace_back("block_s3fifo",
                     std::make_unique<RefBlockS3FifoPolicy>(0.1));
  twins.emplace_back("block_sieve",
                     std::make_unique<RefBlockSievePolicy>());
  twins.emplace_back("threshold_fetch",
                     std::make_unique<ReferenceThresholdBicriteria>(
                         ReferenceThresholdBicriteria::Mode::Fetching));
  twins.emplace_back("threshold_evict",
                     std::make_unique<ReferenceThresholdBicriteria>(
                         ReferenceThresholdBicriteria::Mode::Eviction));
  twins.emplace_back("det_online", std::make_unique<ReferenceDetOnline>());
  return twins;
}

std::vector<std::string> diff_policy_runs(const Instance& inst,
                                          OnlinePolicy& a, OnlinePolicy& b,
                                          std::uint64_t seed,
                                          const std::string& label) {
  std::vector<std::string> out;
  SimOptions sim;
  sim.seed = seed;
  sim.record_schedule = true;
  sim.record_sketch = false;
  RunResult ra, rb;
  try {
    ra = simulate(inst, a, sim);
  } catch (const std::exception& e) {
    out.push_back(label + ": " + a.name() + " failed: " + e.what());
    return out;
  }
  try {
    rb = simulate(inst, b, sim);
  } catch (const std::exception& e) {
    out.push_back(label + ": " + b.name() + " failed: " + e.what());
    return out;
  }

  if (ra.counters() != rb.counters() || ra.cached_pages != rb.cached_pages) {
    std::ostringstream os;
    os << label << ": counters diverge: " << ra.counters() << " vs "
       << rb.counters() << ", cached " << ra.cached_pages << " vs "
       << rb.cached_pages;
    out.push_back(os.str());
  }
  if (ra.final_cache != rb.final_cache)
    out.push_back(label + ": final cache contents diverge");

  if (ra.schedule.steps.size() != rb.schedule.steps.size()) {
    out.push_back(label + ": schedule lengths diverge (" +
                  std::to_string(ra.schedule.steps.size()) + " vs " +
                  std::to_string(rb.schedule.steps.size()) + ")");
    return out;
  }
  for (std::size_t i = 0; i < ra.schedule.steps.size(); ++i) {
    const auto& sa = ra.schedule.steps[i];
    const auto& sb = rb.schedule.steps[i];
    // Capture order within one step is unspecified (see
    // CacheOps::set_capture); compare the step's sets.
    if (sorted(sa.evictions) != sorted(sb.evictions) ||
        sorted(sa.fetches) != sorted(sb.fetches)) {
      out.push_back(label + ": schedules diverge at t=" +
                    std::to_string(i + 1) + " (" +
                    std::to_string(sa.evictions.size()) + "ev/" +
                    std::to_string(sa.fetches.size()) + "fe vs " +
                    std::to_string(sb.evictions.size()) + "ev/" +
                    std::to_string(sb.fetches.size()) + "fe)");
      break;  // one step pinpointed is enough to shrink on
    }
  }
  return out;
}

// --- the frozen threshold separation ---------------------------------------
// ThresholdSeparation::find_violated before its cached rewrite, verbatim
// with its two helpers.

namespace {

/// Iterator to the first entry of `list` with time strictly greater than m
/// (entries are sorted by time; dead entries are skipped wholesale).
auto first_live(const std::vector<FlushVars::Entry>& list, Time m) {
  return std::upper_bound(
      list.begin(), list.end(), m,
      [](Time t, const FlushVars::Entry& e) { return t < e.t; });
}

/// Evaluate the constraint for `sprime`; return Violation if violated.
std::optional<bac::Violation> check(const FlushSet& sprime,
                                    const FlushVars& phi, double tolerance) {
  const double rhs =
      static_cast<double>(sprime.coverage().cap() - sprime.f());
  if (rhs <= 0) return std::nullopt;
  const double lhs = constraint_lhs(sprime, phi);
  if (lhs < rhs - tolerance) return bac::Violation{sprime, lhs, rhs};
  return std::nullopt;
}

}  // namespace

std::optional<bac::Violation> ReferenceThresholdSeparation::find_violated(
    const FlushSet& S, const FlushVars& phi) {
  // Candidate thresholds: phi values of non-dead live entries (positive
  // g-marginal w.r.t. S), bucketed to at most ~2 per power of two (a
  // geometric net) so a call costs O(buckets * live entries) rather than
  // O(live entries^2).
  const FlushCoverage& cov = S.coverage();
  std::vector<double> thresholds;
  for (BlockId b = 0; b < cov.blocks().n_blocks(); ++b) {
    const auto& list = phi.entries(b);
    for (auto it = first_live(list, S.max_flush(b)); it != list.end(); ++it)
      if (it->phi > 0 && S.g_marginal(b, it->t) > 0)
        thresholds.push_back(it->phi);
  }
  std::sort(thresholds.begin(), thresholds.end(), std::greater<>());
  thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                   thresholds.end());
  if (thresholds.size() > 40) {
    std::vector<double> netted;
    netted.reserve(48);
    double last = std::numeric_limits<double>::infinity();
    for (double v : thresholds) {
      if (v <= last / 1.3) {
        netted.push_back(v);
        last = v;
      }
    }
    if (!netted.empty() && netted.back() != thresholds.back())
      netted.push_back(thresholds.back());
    thresholds = std::move(netted);
  }

  // S itself first (theta = +infinity).
  std::optional<bac::Violation> best = check(S, phi, tolerance_);
  if (best) return best;

  for (double theta : thresholds) {
    FlushSet sprime = S;
    for (BlockId b = 0; b < cov.blocks().n_blocks(); ++b) {
      const Time m = S.max_flush(b);
      // Add the *latest* qualifying entry per block; earlier qualifying
      // entries are then dominated (only the max flush time matters).
      Time best_t = kNeverRequested;
      const auto& list = phi.entries(b);
      for (auto it = first_live(list, m); it != list.end(); ++it)
        if (it->phi >= theta && S.g_marginal(b, it->t) > 0)
          best_t = std::max(best_t, it->t);
      if (best_t != kNeverRequested) sprime.add_flush(b, best_t);
    }
    if (auto v = check(sprime, phi, tolerance_)) return v;
  }
  return std::nullopt;
}

// --- the exhaustive separation oracle --------------------------------------
// Exponential in the number of blocks; only tests call it.

std::optional<bac::Violation> ExhaustiveSeparation::find_violated(
    const FlushSet& S, const FlushVars& phi) {
  const FlushCoverage& cov = S.coverage();
  const int n_blocks = cov.blocks().n_blocks();

  // Per-block candidate max flush times: keep S's own, or raise to any
  // entry time or alive time beyond it.
  std::vector<std::vector<Time>> candidates(
      static_cast<std::size_t>(n_blocks));
  for (BlockId b = 0; b < n_blocks; ++b) {
    auto& cand = candidates[static_cast<std::size_t>(b)];
    const Time m = S.max_flush(b);
    cand.push_back(m);
    for (const FlushVars::Entry& e : phi.entries(b))
      if (e.t > m && e.t <= cov.now()) cand.push_back(e.t);
    // Alive times can include now + 1 (the just-requested page); flushes
    // strictly in the future have zero marginal at the current tau and are
    // not representable in a FlushSet, so skip them.
    for (Time t : cov.alive_times(b))
      if (t > m && t <= cov.now()) cand.push_back(t);
    std::sort(cand.begin(), cand.end());
    cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
  }

  std::optional<bac::Violation> worst;
  std::vector<std::size_t> pick(static_cast<std::size_t>(n_blocks), 0);
  std::function<void(int)> recurse = [&](int b) {
    if (b == n_blocks) {
      FlushSet sprime = S;
      for (BlockId bb = 0; bb < n_blocks; ++bb) {
        const Time t =
            candidates[static_cast<std::size_t>(bb)]
                      [pick[static_cast<std::size_t>(bb)]];
        if (t > S.max_flush(bb)) sprime.add_flush(bb, t);
      }
      if (auto v = check(sprime, phi, tolerance_))
        if (!worst || v->amount() > worst->amount()) worst = v;
      return;
    }
    for (std::size_t i = 0;
         i < candidates[static_cast<std::size_t>(b)].size(); ++i) {
      pick[static_cast<std::size_t>(b)] = i;
      recurse(b + 1);
    }
  };
  recurse(0);
  return worst;
}

// --- the frozen fractional weighted paging ----------------------------------
// FractionalWeightedPaging and ThresholdBicriteriaPolicy before the
// incremental rewrite, verbatim (modulo the Reference names).

ReferenceFractionalWeightedPaging::ReferenceFractionalWeightedPaging(
    const Instance& inst)
    : blocks_(&inst.blocks), k_(inst.k) {
  const auto n = static_cast<std::size_t>(inst.n_pages());
  x_.assign(n, 1.0);  // everything starts missing (empty cache)
  cost_.resize(n);
  seen_.assign(n, 0);
  for (PageId p = 0; p < inst.n_pages(); ++p)
    cost_[static_cast<std::size_t>(p)] =
        blocks_->cost(blocks_->block_of(p));
}

double ReferenceFractionalWeightedPaging::cached_mass() const {
  double mass = 0;
  for (std::size_t p = 0; p < x_.size(); ++p)
    if (seen_[p]) mass += 1.0 - x_[p];
  return mass;
}

const std::vector<double>& ReferenceFractionalWeightedPaging::step(PageId p) {
  std::vector<double> before = x_;

  seen_[static_cast<std::size_t>(p)] = 1;
  x_[static_cast<std::size_t>(p)] = 0.0;

  if (cached_mass() > static_cast<double>(k_)) {
    // Grow missing masses of all other seen pages along the exponential
    // dynamics x_q(s) = (x_q + 1/k) * exp(s / c_q) - 1/k, finding the
    // "time" s at which the fractional cache exactly fits via bisection
    // (the cached mass is strictly decreasing in s).
    const double inv_k = 1.0 / static_cast<double>(k_);
    std::vector<double> base = x_;
    auto mass_at = [&](double s) {
      double mass = 0;
      for (std::size_t q = 0; q < x_.size(); ++q) {
        if (!seen_[q] || static_cast<PageId>(q) == p) continue;
        const double xq = std::min(
            1.0, (base[q] + inv_k) * std::exp(s / cost_[q]) - inv_k);
        mass += 1.0 - xq;
      }
      return mass + 1.0;  // the requested page contributes 1 - x_p = 1
    };

    double lo = 0.0, hi = 1.0;
    while (mass_at(hi) > static_cast<double>(k_)) hi *= 2.0;
    for (int iter = 0; iter < 100; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (mass_at(mid) > static_cast<double>(k_)) lo = mid;
      else hi = mid;
    }
    for (std::size_t q = 0; q < x_.size(); ++q) {
      if (!seen_[q] || static_cast<PageId>(q) == p) continue;
      x_[q] = std::min(1.0, (base[q] + inv_k) * std::exp(hi / cost_[q]) - inv_k);
    }
  }

  // Account fetching costs (mass decreases = fractional fetches).
  for (std::size_t q = 0; q < x_.size(); ++q) {
    const double dec = before[q] - x_[q];
    if (dec > 0) fetch_cost_ += cost_[q] * dec;
  }
  for (BlockId b = 0; b < blocks_->n_blocks(); ++b) {
    double max_dec = 0;
    for (PageId q : blocks_->pages_in(b))
      max_dec = std::max(max_dec,
                         before[static_cast<std::size_t>(q)] -
                             x_[static_cast<std::size_t>(q)]);
    if (max_dec > 0) block_fetch_cost_ += blocks_->cost(b) * max_dec;
  }
  return x_;
}

void ReferenceThresholdBicriteria::reset(const Instance& inst) {
  // Virtual fractional cache of h = max(1, k/2) pages; the rounded cache
  // then provably fits within k. The instance copy must outlive frac_,
  // which keeps references into it.
  half_.emplace(inst);
  half_->k = std::max(1, inst.k / 2);
  frac_.emplace(*half_);
  prev_x_.assign(static_cast<std::size_t>(inst.n_pages()), 1.0);
}

void ReferenceThresholdBicriteria::on_request(Time /*t*/, PageId p,
                                              CacheOps& cache) {
  const std::vector<double>& x = frac_->step(p);
  const BlockMap& blocks = cache.blocks();

  if (mode_ == Mode::Fetching) {
    // Evict everything above the threshold (free), then batch-fetch the
    // requested block's eligible pages on a miss.
    for (PageId q = 0; q < blocks.n_pages(); ++q)
      if (x[static_cast<std::size_t>(q)] > 0.5 && cache.contains(q))
        cache.evict(q);
    if (!cache.contains(p)) {
      for (PageId q : blocks.pages_in(blocks.block_of(p)))
        if (x[static_cast<std::size_t>(q)] <= 0.5) cache.fetch(q);
    }
  } else {
    // Eviction variant: crossing above 1/2 flushes the block's crossed
    // pages in one batch; fetching is free, so fetch only the request.
    // The crossed blocks are marked first and their pages evicted in
    // ascending page order, the Fetching variant's order, so that the
    // meter adds their classic costs in the same order also when blocks
    // are not contiguous.
    std::vector<char> crossed(static_cast<std::size_t>(blocks.n_blocks()), 0);
    for (PageId q = 0; q < blocks.n_pages(); ++q)
      if (x[static_cast<std::size_t>(q)] > 0.5 &&
          prev_x_[static_cast<std::size_t>(q)] <= 0.5 && cache.contains(q))
        crossed[static_cast<std::size_t>(blocks.block_of(q))] = 1;
    for (PageId q = 0; q < blocks.n_pages(); ++q)
      if (x[static_cast<std::size_t>(q)] > 0.5 &&
          crossed[static_cast<std::size_t>(blocks.block_of(q))])
        cache.evict(q);
    if (!cache.contains(p)) cache.fetch(p);
  }

  // Safety: the fractional invariant bounds |{x <= 1/2}| by 2h <= k, but
  // guard against the h < beta adjustment edge with explicit eviction of
  // the largest-x cached pages.
  while (cache.size() > cache.capacity()) {
    PageId victim = -1;
    double worst = -1;
    for (PageId q : cache.pages()) {
      if (q == p) continue;
      if (x[static_cast<std::size_t>(q)] > worst) {
        worst = x[static_cast<std::size_t>(q)];
        victim = q;
      }
    }
    if (victim < 0) break;
    cache.evict(victim);
  }
  prev_x_ = x;
}

// --- the frozen Algorithm 1 -------------------------------------------------
// DetOnlineBlockAware before it kept one entry per cached page, verbatim.

void ReferenceDetOnline::reset(const Instance& inst) {
  blocks_ = &inst.blocks;
  k_ = inst.k;
  cov_.emplace(inst.blocks, inst.k);
  S_.emplace(*cov_);  // all blocks flushed at time 0 (free initial clear)
  entries_.assign(static_cast<std::size_t>(inst.blocks.n_blocks()), {});
  dual_obj_ = 0;
  primal_cost_ = 0;
  flushes_ = 0;
  max_load_ratio_ = 0;
  events_.clear();
}

void ReferenceDetOnline::on_request(Time t, PageId p, CacheOps& cache) {
  FlushSet* sets[] = {&*S_};
  cov_->advance(p, t, sets);

  // Track the new alive time r(p, t) + 1 = t + 1 for p's block. Its dual
  // load starts at zero: flushes at future times have zero marginal at all
  // past overflow events.
  {
    const BlockId b = blocks_->block_of(p);
    auto& list = entries_[static_cast<std::size_t>(b)];
    if (list.empty() || list.back().t < t + 1) list.push_back({t + 1, 0.0});
  }

  cache.fetch(p);  // free in the eviction cost model
  if (cache.size() <= k_) return;

  // Overflow: |C| = k + 1, so cap - f_tau(S) = 1 and each positive capped
  // marginal is exactly 1. Find, over all tracked flushes with positive
  // marginal, the minimal slack c_B - load.
  double delta = std::numeric_limits<double>::infinity();
  BlockId chosen = -1;
  const int n_blocks = blocks_->n_blocks();
  for (BlockId b = 0; b < n_blocks; ++b) {
    const auto& list = entries_[static_cast<std::size_t>(b)];
    if (list.empty()) continue;
    const Time m = S_->max_flush(b);
    const int cnt_m = cov_->count_below(b, m);
    const double c_b = blocks_->cost(b);
    for (const Entry& e : list) {
      if (e.t > t) break;  // future flush: zero marginal
      if (cov_->count_below(b, e.t) <= cnt_m) continue;  // marginal 0
      const double slack = c_b - e.load;
      if (slack < delta) {
        delta = slack;
        chosen = b;
      }
    }
  }
  if (chosen < 0)
    throw std::logic_error("DetOnline: no flush candidate at overflow");
  if (delta < 0) delta = 0;  // tight already (floating-point guard)

  if (log_events_) {
    DualEvent ev;
    ev.tau = t;
    ev.delta = delta;
    ev.max_flush.reserve(static_cast<std::size_t>(n_blocks));
    for (BlockId b = 0; b < n_blocks; ++b)
      ev.max_flush.push_back(S_->max_flush(b));
    ev.last_request.reserve(static_cast<std::size_t>(cov_->n()));
    for (PageId q = 0; q < cov_->n(); ++q)
      ev.last_request.push_back(cov_->last_request(q));
    events_.push_back(std::move(ev));
  }

  // Raise y by delta: every tracked flush with positive marginal gains
  // delta of dual load; the dual objective gains delta * 1.
  for (BlockId b = 0; b < n_blocks; ++b) {
    auto& list = entries_[static_cast<std::size_t>(b)];
    if (list.empty()) continue;
    const Time m = S_->max_flush(b);
    const int cnt_m = cov_->count_below(b, m);
    const double c_b = blocks_->cost(b);
    for (Entry& e : list) {
      if (e.t > t) break;
      if (cov_->count_below(b, e.t) <= cnt_m) continue;
      e.load += delta;
      max_load_ratio_ = std::max(max_load_ratio_, e.load / c_b);
    }
  }
  dual_obj_ += delta;

  // Perform the flush (chosen, t): evict all cached pages of the block
  // except the just-requested page.
  S_->add_flush(chosen, t);
  // Entries with time <= t have zero marginal forever; but if the flushed
  // block is the requested page's own, the alive time t + 1 (induced by
  // the kept page p) remains chargeable and must stay tracked.
  entries_[static_cast<std::size_t>(chosen)].clear();
  if (blocks_->block_of(p) == chosen)
    entries_[static_cast<std::size_t>(chosen)].push_back({t + 1, 0.0});
  const int evicted = cache.flush_block(chosen, p);
  if (evicted < 1)
    throw std::logic_error("DetOnline: flush evicted no pages");
  primal_cost_ += blocks_->cost(chosen);
  ++flushes_;
}

// --- the frozen Algorithm 2 ---------------------------------------------
// FractionalBlockAware::step before its saturation bisection consulted a
// certified bracket, verbatim (modulo the Reference name and the oracle
// it owns by value).

ReferenceFractionalBlockAware::ReferenceFractionalBlockAware(
    const BlockMap& blocks, int k)
    : blocks_(&blocks),
      eps_(1.0 / (static_cast<double>(k) * blocks.beta())),
      log_term_(std::log(static_cast<double>(k) * blocks.beta() + 1.0)),
      vars_(blocks.n_blocks()) {
  cov_.emplace(blocks, k);
  S_.emplace(*cov_);  // S = {(B, 0)}: free initial clear
  for (BlockId b = 0; b < blocks.n_blocks(); ++b) vars_.raise_to(b, 0, 1.0);
}

const std::vector<FractionalIncrement>& ReferenceFractionalBlockAware::step(
    Time t, PageId p) {
  increments_.clear();
  FlushSet* sets[] = {&*S_};
  cov_->advance(p, t, sets);

  // Paranoia bound: adoptions raise g(S) by >= 1 (capped at n) and
  // saturation iterations strictly satisfy the oracle's constraint, so the
  // loop terminates; the generous cap guards against numerical stalls.
  const int max_iters = 20 * cov_->n() + 200;
  for (int iter = 0;; ++iter) {
    if (iter > max_iters)
      throw std::logic_error("ReferenceFractionalBlockAware: while-loop not converging");

    const auto violation = oracle_.find_violated(*S_, vars_);
    if (!violation) break;
    const FlushSet& sprime = violation->sprime;

    // Gather alive flushes and their capped marginals w.r.t. S'.
    alive_.clear();
    rates_.clear();
    rate_slots_.reset();
    for (BlockId b = 0; b < blocks_->n_blocks(); ++b) {
      const double eta = log_term_ / blocks_->cost(b);
      cov_->alive_times(b, alive_times_);
      for (Time at : alive_times_) {
        if (at > t) continue;  // flush strictly in the future: untouchable
        const int coeff = sprime.f_marginal(b, at);
        if (coeff <= 0) continue;
        const double rate = eta * coeff;
        const auto [slot, fresh] = rate_slots_.try_emplace(
            std::bit_cast<std::uint64_t>(rate), rates_.size());
        if (fresh) rates_.push_back(rate);
        alive_.push_back({b, at, coeff, vars_.get(b, at), rate, *slot});
      }
    }
    // exp(rate * d) once per distinct rate (coeff <= beta, so with equal
    // block costs there are at most beta of them).
    growth_.resize(rates_.size());
    const auto grow_to = [&](double d) {
      for (std::size_t r = 0; r < rates_.size(); ++r)
        growth_[r] = std::exp(rates_[r] * d);
    };

    // d_tight: minimal dual increase making some alive flush with
    // coeff >= 1 reach phi = 1 (its dual constraint tightens then).
    double d_tight = std::numeric_limits<double>::infinity();
    std::size_t chosen = alive_.size();
    for (std::size_t i = 0; i < alive_.size(); ++i) {
      const Candidate& c = alive_[i];
      if (c.phi >= 1.0 - 1e-12) {
        // Already fully evicted fractionally but not yet in S: adopt it
        // immediately (d = 0).
        d_tight = 0.0;
        chosen = i;
        break;
      }
      const double d = std::log((1.0 + eps_) / (c.phi + eps_)) / c.rate;
      if (d < d_tight) {
        d_tight = d;
        chosen = i;
      }
    }
    if (chosen == alive_.size())
      throw std::logic_error(
          "ReferenceFractionalBlockAware: violated constraint but no alive candidate");

    // d_sat: the dual increase at which the violated constraint becomes
    // exactly satisfied — the paper's continuous while-condition stops the
    // growth there. LHS(d) is monotone; bisect. (Without this cutoff every
    // candidate would grow all the way to phi = 1, inflating the primal by
    // a Theta(k) factor — see Lemma 3.11's inequality (3.6), which is only
    // valid while the constraint is violated.)
    const double rhs = violation->rhs;
    auto lhs_at = [&](double d) {
      grow_to(d);
      double lhs = 0;
      for (const Candidate& c : alive_) {
        const double phi =
            std::min(1.0, (c.phi + eps_) * growth_[c.slot] - eps_);
        lhs += static_cast<double>(c.coeff) * phi;
      }
      return lhs;
    };
    double dstar = d_tight;
    bool adopt = true;
    if (d_tight > 0 && lhs_at(d_tight) >= rhs) {
      adopt = false;  // saturation happens first; no variable reaches 1
      double lo = 0.0, hi = d_tight;
      for (int iter = 0; iter < 64; ++iter) {
        const double mid = 0.5 * (lo + hi);
        // With mid at an end, this update leaves (lo, hi) final: every
        // later halving recomputes this mid and takes this branch.
        const bool fixed_point = mid == lo || mid == hi;
        if (lhs_at(mid) < rhs) lo = mid;
        else hi = mid;
        if (fixed_point) break;
      }
      dstar = hi;
      if (dstar < 1e-13) adopt = true;  // numeric stall: force progress
    }

    // Apply the closed-form growth to every alive flush.
    if (dstar > 0) {
      grow_to(dstar);
      for (const Candidate& c : alive_) {
        double phi_new = (c.phi + eps_) * growth_[c.slot] - eps_;
        phi_new = std::min(phi_new, 1.0);
        const double delta = phi_new - c.phi;
        if (delta > 0) {
          vars_.increase(c.b, c.t, delta);
          increments_.push_back({c.b, c.t, delta, phi_new});
        }
      }
      dual_obj_ += dstar * static_cast<double>(cov_->cap() - sprime.f());
    }

    if (adopt) {
      // The tight flush becomes integral.
      const Candidate& win = alive_[chosen];
      const double topup = vars_.raise_to(win.b, win.t, 1.0);
      if (topup > 0) increments_.push_back({win.b, win.t, topup, 1.0});
      S_->add_flush(win.b, win.t);
      ++integral_flushes_;
    }
  }
  return increments_;
}

bool bit_identical(const std::vector<FractionalIncrement>& a,
                   const std::vector<FractionalIncrement>& b) {
  return std::equal(
      a.begin(), a.end(), b.begin(), b.end(),
      [](const FractionalIncrement& x, const FractionalIncrement& y) {
        return x.b == y.b && x.t == y.t &&
               std::bit_cast<std::uint64_t>(x.delta) ==
                   std::bit_cast<std::uint64_t>(y.delta) &&
               std::bit_cast<std::uint64_t>(x.new_value) ==
                   std::bit_cast<std::uint64_t>(y.new_value);
      });
}

}  // namespace bac::verify
