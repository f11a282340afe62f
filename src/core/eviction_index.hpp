// Flat, page-indexed eviction-index primitives for the simulation hot path.
//
// Every classical policy orders its eviction candidates somehow — by
// recency, arrival, frequency, credit, or next use. The textbook container
// for that is std::set<std::pair<Key, PageId>>: a node-allocating red-black
// tree touched 1-3 times per request. Both orders the policies actually
// need admit flat array structures with no per-operation allocation:
//
//   - IntrusiveOrderList: a doubly-linked list threaded through two
//     std::vector<int32_t> (prev/next per id). Recency and arrival orders
//     insert strictly increasing timestamps, so set order == insertion
//     order and O(1) push_back/erase/pop_front reproduce it exactly.
//   - LazyMinHeap<Key>: a 4-ary heap over a flat entry array with lazy
//     deletion. Priority orders (LFU frequency, GreedyDual credit, Belady
//     next-use) update keys on hits; instead of erasing the old entry we
//     bump the id's epoch, push a fresh entry, and skip stale entries
//     (stamp != current epoch) at pop time. Ties break on id through the
//     pair comparator, matching std::set<std::pair<Key, id>> exactly.
//
// Both structures reuse their storage across reset() calls, so a policy
// swept over thousands of (workload, k) cells stops hammering the
// allocator — reset is O(n) writes into vectors that are already sized.
//
// Determinism: pop() always extracts the comparator-minimum *valid* entry,
// which is unique (at most one valid entry per id), so results are
// independent of the heap's internal layout. Policies rewritten from
// std::set onto these primitives produce bit-identical schedules; the
// verify subsystem's policy_equivalence oracle family replays randomized
// instances against frozen std::set reference twins to prove it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

namespace bac {

/// Doubly-linked list over dense ids [0, n) with O(1) push_back / erase /
/// pop_front and no allocation after reset(). Iteration order is insertion
/// order; for timestamp-keyed recency sets (strictly increasing keys) that
/// is exactly std::set order with front() == the minimum.
class IntrusiveOrderList {
 public:
  static constexpr std::int32_t kNone = -1;

  /// Size for ids [0, n), dropping all links. Storage is reused: after the
  /// first reset at a given n, subsequent resets allocate nothing.
  void reset(int n) {
    prev_.assign(static_cast<std::size_t>(n), kUnlinked);
    next_.assign(static_cast<std::size_t>(n), kUnlinked);
    head_ = tail_ = kNone;
    size_ = 0;
  }

  [[nodiscard]] bool contains(std::int32_t id) const noexcept {
    return prev_[static_cast<std::size_t>(id)] != kUnlinked;
  }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] int size() const noexcept { return size_; }
  /// Oldest id, or kNone when empty.
  [[nodiscard]] std::int32_t front() const noexcept { return head_; }
  /// Newest id, or kNone when empty.
  [[nodiscard]] std::int32_t back() const noexcept { return tail_; }
  /// The id one step newer than `id` (kNone at the newest end).
  /// Precondition: contains(id). This is what a clock hand walks.
  [[nodiscard]] std::int32_t next(std::int32_t id) const noexcept {
    return next_[static_cast<std::size_t>(id)];
  }
  /// The id one step older than `id` (kNone at the oldest end).
  /// Precondition: contains(id).
  [[nodiscard]] std::int32_t prev(std::int32_t id) const noexcept {
    return prev_[static_cast<std::size_t>(id)];
  }

  /// Append id as most-recent. Precondition: !contains(id).
  void push_back(std::int32_t id) {
    const auto i = static_cast<std::size_t>(id);
    prev_[i] = tail_;
    next_[i] = kNone;
    if (tail_ != kNone) next_[static_cast<std::size_t>(tail_)] = id;
    tail_ = id;
    if (head_ == kNone) head_ = id;
    ++size_;
  }

  /// Unlink id. Precondition: contains(id).
  void erase(std::int32_t id) {
    const auto i = static_cast<std::size_t>(id);
    const std::int32_t p = prev_[i];
    const std::int32_t n = next_[i];
    if (p != kNone) next_[static_cast<std::size_t>(p)] = n;
    else head_ = n;
    if (n != kNone) prev_[static_cast<std::size_t>(n)] = p;
    else tail_ = p;
    prev_[i] = next_[i] = kUnlinked;
    --size_;
  }

  /// Remove and return the oldest id (kNone when empty).
  std::int32_t pop_front() {
    const std::int32_t id = head_;
    if (id != kNone) erase(id);
    return id;
  }

 private:
  static constexpr std::int32_t kUnlinked = -2;  ///< id not in the list
  std::vector<std::int32_t> prev_;  ///< kNone at head, kUnlinked if absent
  std::vector<std::int32_t> next_;
  std::int32_t head_ = kNone;
  std::int32_t tail_ = kNone;
  int size_ = 0;
};

/// 4-ary min-heap over (Key, id) pairs with lazy deletion, for priority
/// eviction orders whose keys change on hits. `PairLess` orders the pairs
/// (std::less reproduces std::set<std::pair<Key, id>>::begin as pop();
/// std::greater turns it into a max-heap, reproducing rbegin()).
///
/// Key updates do not search the heap: the id's epoch is bumped (making
/// any older entry stale) and a freshly stamped entry is pushed. pop()
/// discards stale entries from the root until a valid one surfaces. The
/// entry array self-compacts when stale entries outnumber live ones, so
/// memory stays O(live + transient stale) and no stale entry survives a
/// compaction — which also makes the 32-bit epoch safe: the epoch only
/// wraps after 2^32 bumps of one id, and the wrap triggers a compaction
/// first, so a wrapped stamp can never alias a surviving stale entry.
template <typename Key,
          typename PairLess = std::less<std::pair<Key, std::int32_t>>>
class LazyMinHeap {
 public:
  /// Size for ids [0, n), dropping all entries. Storage (the entry array
  /// and the per-id epoch/membership tables) is reused across resets.
  void reset(int n) {
    entries_.clear();
    epoch_.assign(static_cast<std::size_t>(n), 0);
    in_.assign(static_cast<std::size_t>(n), 0);
    live_ = 0;
  }

  [[nodiscard]] bool contains(std::int32_t id) const noexcept {
    return in_[static_cast<std::size_t>(id)] != 0;
  }
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] int size() const noexcept { return live_; }

  /// Insert id with `key`. Precondition: !contains(id).
  void push(std::int32_t id, Key key) {
    in_[static_cast<std::size_t>(id)] = 1;
    push_entry(id, key);
    ++live_;
  }

  /// Change id's key (hit-path refresh). Precondition: contains(id).
  void update(std::int32_t id, Key key) {
    bump_epoch(id);  // strands the old entry as stale
    push_entry(id, key);
  }

  /// Remove id without extracting it. Precondition: contains(id).
  void erase(std::int32_t id) {
    in_[static_cast<std::size_t>(id)] = 0;
    --live_;
    bump_epoch(id);
  }

  /// Extract the comparator-minimum valid entry into (id, key); false when
  /// empty. Deterministic: the valid minimum is unique, so the result does
  /// not depend on the heap's internal layout.
  bool pop(std::int32_t& id, Key& key) {
    for (;;) {
      if (entries_.empty()) return false;
      const Entry top = entries_.front();
      remove_root();
      if (!valid(top)) continue;
      id = top.id;
      key = top.key;
      in_[static_cast<std::size_t>(id)] = 0;
      --live_;
      bump_epoch(id);
      return true;
    }
  }

  /// Entries currently stored, including stale ones (introspection/tests).
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return entries_.size();
  }

  /// Drop every stale entry and restore the heap property. O(entries).
  void compact() {
    std::size_t kept = 0;
    for (const Entry& e : entries_)
      if (valid(e)) entries_[kept++] = e;
    entries_.resize(kept);
    // Floyd heapify: sift down from the last internal node.
    if (kept > 1)
      for (std::size_t i = (kept - 2) / 4 + 1; i-- > 0;) sift_down(i);
  }

  /// Test-only: read / force an id's epoch (to exercise the wrap path
  /// without 2^32 updates). Forcing an epoch strands the id's current
  /// entry, so only use it on ids that are not in the heap.
  [[nodiscard]] std::uint32_t debug_epoch(std::int32_t id) const noexcept {
    return epoch_[static_cast<std::size_t>(id)];
  }
  void debug_set_epoch(std::int32_t id, std::uint32_t e) noexcept {
    epoch_[static_cast<std::size_t>(id)] = e;
  }

 private:
  struct Entry {
    Key key;
    std::int32_t id;
    std::uint32_t epoch;  ///< stale unless == epoch_[id]
  };

  [[nodiscard]] bool valid(const Entry& e) const noexcept {
    const auto i = static_cast<std::size_t>(e.id);
    return in_[i] != 0 && epoch_[i] == e.epoch;
  }

  [[nodiscard]] bool entry_less(const Entry& a, const Entry& b) const {
    return PairLess{}(std::pair<Key, std::int32_t>(a.key, a.id),
                      std::pair<Key, std::int32_t>(b.key, b.id));
  }

  void bump_epoch(std::int32_t id) {
    auto& e = epoch_[static_cast<std::size_t>(id)];
    if (e == std::numeric_limits<std::uint32_t>::max()) compact();
    ++e;  // wraps to 0 after a compaction purged all stale entries
  }

  void push_entry(std::int32_t id, Key key) {
    // Amortized stale control: when stale entries outnumber live ones 3:1
    // (and the array is past a trivial size), purge them before growing.
    // The ratio trades a little memory for compaction frequency: after a
    // compact the array is all-live, so 3*live pushes are amortized
    // against each O(entries) purge.
    if (entries_.size() > 64 &&
        entries_.size() > 4 * static_cast<std::size_t>(live_) + 1)
      compact();
    entries_.push_back(
        Entry{key, id, epoch_[static_cast<std::size_t>(id)]});
    sift_up(entries_.size() - 1);
  }

  void remove_root() {
    entries_.front() = entries_.back();
    entries_.pop_back();
    if (!entries_.empty()) sift_down(0);
  }

  void sift_up(std::size_t i) {
    const Entry e = entries_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!entry_less(e, entries_[parent])) break;
      entries_[i] = entries_[parent];
      i = parent;
    }
    entries_[i] = e;
  }

  void sift_down(std::size_t i) {
    const Entry e = entries_[i];
    const std::size_t n = entries_.size();
    for (;;) {
      const std::size_t first_child = 4 * i + 1;
      if (first_child >= n) break;
      const std::size_t last_child = std::min(first_child + 4, n);
      std::size_t best = first_child;
      for (std::size_t c = first_child + 1; c < last_child; ++c)
        if (entry_less(entries_[c], entries_[best])) best = c;
      if (!entry_less(entries_[best], e)) break;
      entries_[i] = entries_[best];
      i = best;
    }
    entries_[i] = e;
  }

  std::vector<Entry> entries_;        ///< heap array, live + stale
  std::vector<std::uint32_t> epoch_;  ///< per id: current stamp
  std::vector<char> in_;              ///< per id: has a valid entry
  int live_ = 0;
};

/// Several bounded FIFO queues threaded through one shared set of
/// prev/next/segment arrays over dense ids [0, n). Supports O(1)
/// push_back, pop_front, erase, and promote/demote between segments
/// (move_back), with no allocation after reset() — the backbone of
/// segmented policies like S3-FIFO (small/main) and ARC (T1/T2).
/// Membership is exclusive: an id lives in at most one segment.
class SegmentedFifo {
 public:
  static constexpr std::int32_t kNone = -1;

  /// Size for ids [0, n) with `segments` queues, dropping all links.
  /// Storage is reused: after the first reset at a given (n, segments),
  /// subsequent resets allocate nothing.
  void reset(int n, int segments) {
    prev_.assign(static_cast<std::size_t>(n), kNone);
    next_.assign(static_cast<std::size_t>(n), kNone);
    seg_.assign(static_cast<std::size_t>(n), kNoSegment);
    head_.assign(static_cast<std::size_t>(segments), kNone);
    tail_.assign(static_cast<std::size_t>(segments), kNone);
    size_.assign(static_cast<std::size_t>(segments), 0);
  }

  [[nodiscard]] bool contains(std::int32_t id) const noexcept {
    return seg_[static_cast<std::size_t>(id)] != kNoSegment;
  }
  /// Segment holding id, or kNone when absent.
  [[nodiscard]] int segment_of(std::int32_t id) const noexcept {
    const std::int32_t s = seg_[static_cast<std::size_t>(id)];
    return s == kNoSegment ? kNone : s;
  }
  [[nodiscard]] int size(int segment) const noexcept {
    return size_[static_cast<std::size_t>(segment)];
  }
  /// Oldest id in `segment`, or kNone when that queue is empty.
  [[nodiscard]] std::int32_t front(int segment) const noexcept {
    return head_[static_cast<std::size_t>(segment)];
  }

  /// Append id at the tail (newest end) of `segment`.
  /// Precondition: !contains(id).
  void push_back(int segment, std::int32_t id) {
    const auto i = static_cast<std::size_t>(id);
    const auto s = static_cast<std::size_t>(segment);
    prev_[i] = tail_[s];
    next_[i] = kNone;
    seg_[i] = segment;
    if (tail_[s] != kNone) next_[static_cast<std::size_t>(tail_[s])] = id;
    tail_[s] = id;
    if (head_[s] == kNone) head_[s] = id;
    ++size_[s];
  }

  /// Unlink id from whichever segment holds it. Precondition: contains(id).
  void erase(std::int32_t id) {
    const auto i = static_cast<std::size_t>(id);
    const auto s = static_cast<std::size_t>(seg_[i]);
    const std::int32_t p = prev_[i];
    const std::int32_t n = next_[i];
    if (p != kNone) next_[static_cast<std::size_t>(p)] = n;
    else head_[s] = n;
    if (n != kNone) prev_[static_cast<std::size_t>(n)] = p;
    else tail_[s] = p;
    prev_[i] = next_[i] = kNone;
    seg_[i] = kNoSegment;
    --size_[s];
  }

  /// Remove and return the oldest id of `segment` (kNone when empty).
  std::int32_t pop_front(int segment) {
    const std::int32_t id = head_[static_cast<std::size_t>(segment)];
    if (id != kNone) erase(id);
    return id;
  }

  /// Move id to the tail of `to_segment` — the O(1) promote/demote (a
  /// same-segment move is the FIFO "reinsert"). Precondition: contains(id).
  void move_back(std::int32_t id, int to_segment) {
    erase(id);
    push_back(to_segment, id);
  }

 private:
  static constexpr std::int32_t kNoSegment = -1;
  std::vector<std::int32_t> prev_;  ///< within the id's segment queue
  std::vector<std::int32_t> next_;
  std::vector<std::int32_t> seg_;   ///< kNoSegment when absent
  std::vector<std::int32_t> head_;  ///< per segment: oldest id
  std::vector<std::int32_t> tail_;  ///< per segment: newest id
  std::vector<int> size_;
};

/// Fixed-capacity recency ghost list over dense ids [0, n): remembers the
/// most recent `capacity` inserted ids in insertion order, silently
/// dropping the oldest when full. No allocation per request — everything
/// lives in arrays sized at reset(), and the intrusive recency list makes
/// every operation O(1).
class GhostTable {
 public:
  static constexpr std::int32_t kNone = -1;

  /// Size for ids [0, n) with room for `capacity` ghosts, dropping all
  /// entries. Storage is reused across resets at the same n.
  void reset(int n, int capacity) {
    order_.reset(n);
    capacity_ = capacity;
  }

  [[nodiscard]] bool contains(std::int32_t id) const noexcept {
    return order_.contains(id);
  }
  [[nodiscard]] int size() const noexcept { return order_.size(); }
  [[nodiscard]] int capacity() const noexcept { return capacity_; }
  /// Oldest remembered ghost, or kNone when empty.
  [[nodiscard]] std::int32_t front() const noexcept { return order_.front(); }

  /// Remember id as the most recent ghost, moving it to the newest end if
  /// already present. Returns the id dropped to make room (kNone if none
  /// was).
  std::int32_t insert(std::int32_t id) {
    std::int32_t dropped = kNone;
    if (order_.contains(id)) {
      order_.erase(id);
    } else if (capacity_ <= 0) {
      return dropped;  // degenerate capacity: remember nothing
    } else if (order_.size() >= capacity_) {
      dropped = order_.pop_front();
    }
    order_.push_back(id);
    return dropped;
  }

  /// Forget id (the "ghost hit consumed" transition). No-op when absent.
  void erase(std::int32_t id) {
    if (order_.contains(id)) order_.erase(id);
  }

  /// Drop and return the oldest ghost (kNone when empty).
  std::int32_t pop_front() { return order_.pop_front(); }

 private:
  IntrusiveOrderList order_;  ///< front = oldest ghost
  int capacity_ = 0;
};

/// Per-page (or per-block) metadata vector: the freq counters, visited
/// bits, and membership tags every policy keeps alongside its queues.
/// reset() assigns in place, so storage is reused across sweep cells,
/// and the int32 index operator absorbs the static_cast<std::size_t>
/// noise that otherwise spreads through every policy.
template <typename T>
class PageMeta {
 public:
  /// Size for ids [0, n), setting every slot to `init`. Reuses storage.
  void reset(int n, T init = T{}) {
    slots_.assign(static_cast<std::size_t>(n), init);
  }

  [[nodiscard]] T& operator[](std::int32_t id) noexcept {
    return slots_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const T& operator[](std::int32_t id) const noexcept {
    return slots_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(slots_.size());
  }

 private:
  std::vector<T> slots_;
};

}  // namespace bac
