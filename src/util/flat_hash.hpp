// Open-addressing flat hash table for the simulation hot paths.
//
// FlatMap<K, V> is a SwissTable-style table: a contiguous control-byte
// array probed a group (8 bytes) at a time via SWAR bit tricks, with
// the key/value slots in a parallel flat array. Compared to
// std::unordered_map, a lookup touches one control group plus the matching
// slot instead of a bucket head plus a chain of heap nodes — the pointer
// chase that dominates CSV key interning and exact-OPT layer DP profiles.
//
// Layout and probing:
//   - ctrl_[i] is kEmpty (0x80), kDeleted (0xFE), or the low 7 bits of the
//     key's hash (h2, high bit clear). Capacity is a power of two >= 16,
//     so groups of 8 control bytes tile the table exactly.
//   - A probe starts at group h1(hash) mod n_groups and walks a triangular
//     sequence (g += 1, 2, 3, ...), which visits every group when the
//     group count is a power of two. Within a group, candidate slots are
//     found by matching h2 against all 8 control bytes at once:
//         match(g, b) = haszero(g ^ (b * 0x0101..)),
//         haszero(v)  = (v - 0x0101..) & ~v & 0x8080..
//     haszero is the exact per-byte zero test (the &~v term kills the
//     borrow-chain false positives of the cheaper variant), so matching is
//     precise: full bytes never alias kEmpty/kDeleted (high bit differs).
//   - A probe stops at the first group containing an empty byte: a key
//     displaced past that group could never have been inserted.
//
// Growth and deletion:
//   - Max load factor 7/8 over occupied (full + deleted) slots, so every
//     table keeps >= capacity/8 genuinely empty bytes and probes always
//     terminate. Erase writes a tombstone (kDeleted); inserts reuse the
//     first tombstone on their probe path, so erase/re-insert churn does
//     not consume the empty reserve.
//   - Rehash is tombstone-free: when occupancy hits the limit, entries are
//     re-placed into a fresh table (2x capacity if genuinely full, same
//     capacity if mostly tombstones) and tombstones are dropped.
//
// Allocation contract (the PR-5 reset-reuse discipline): reserve(n) sizes
// the table so n insertions rehash nothing; reset() clears in O(capacity)
// control-byte writes and keeps both arrays, so a table cycled through
// reset()/refill at steady-state size performs zero heap allocations.
//
// Heterogeneous lookup: with the default hasher, string-keyed tables
// accept std::string_view lookups and try_emplace constructs std::string
// only on actual insertion. hash()/prefetch()/find_hashed() split a probe
// so batched loops can software-pipeline: hash and prefetch key i+1's
// control group while key i's lookup resolves.
//
// Invalidation: rehash invalidates pointers and iterators. erase() and
// reset() never move slots, so pointers to *other* entries survive them.
// Iteration order is an implementation detail but deterministic: the same
// sequence of operations on the same keys yields the same order.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace bac {

/// Default hasher: splitmix64-finished, so consecutive integer keys (page
/// ids, DP masks) spread over the whole 64-bit range — open addressing is
/// unforgiving of the identity hash std::hash uses for integers.
template <typename K, typename Enable = void>
struct FlatHash;

template <typename K>
struct FlatHash<K, std::enable_if_t<std::is_integral_v<K> || std::is_enum_v<K>>> {
  std::uint64_t operator()(K key) const noexcept {
    std::uint64_t state = static_cast<std::uint64_t>(key);
    return splitmix64(state);
  }
};

/// Transparent string hasher: FNV-1a over the bytes, splitmix64 finish.
/// Hashing through string_view means a map keyed by std::string can be
/// probed with an unowned view — no temporary std::string on lookups.
struct FlatStringHash {
  using is_transparent = void;
  std::uint64_t operator()(std::string_view s) const noexcept {
    std::uint64_t h = 14695981039346656037ULL;
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    return splitmix64(h);
  }
};

template <>
struct FlatHash<std::string> : FlatStringHash {};
template <>
struct FlatHash<std::string_view> : FlatStringHash {};

/// Open-addressing hash map. See the file comment for layout, growth, and
/// invalidation rules. Keys must be movable; lookups may use any type the
/// hasher and equality functor accept (string_view for string keys).
template <typename K, typename V, typename Hash = FlatHash<K>,
          typename Eq = std::equal_to<>>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  FlatMap() = default;

  /// Size so that `n` entries fit without rehashing (load factor 7/8).
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap - cap / 8 < n) cap *= 2;
    if (cap > capacity()) rehash_to(cap);
  }

  [[nodiscard]] std::size_t size() const noexcept { return full_; }
  [[nodiscard]] bool empty() const noexcept { return full_ == 0; }
  /// Slot count (power of two, or 0 before the first insertion).
  [[nodiscard]] std::size_t capacity() const noexcept { return ctrl_.size(); }

  /// Drop all entries but keep the arrays: O(capacity) control writes,
  /// zero allocation. Slot payloads are not destroyed until overwritten
  /// by a later insert (they are reused storage, exactly like the flat
  /// eviction indexes).
  void reset() noexcept {
    if (!ctrl_.empty()) std::memset(ctrl_.data(), kEmpty, ctrl_.size());
    full_ = 0;
    deleted_ = 0;
  }
  void clear() noexcept { reset(); }

  /// Hash a lookup key once; feed the result to prefetch()/find_hashed()
  /// to software-pipeline batched probes.
  template <typename Q>
  [[nodiscard]] std::uint64_t hash(const Q& key) const noexcept {
    return Hash{}(key);
  }

  /// Hint the CPU to pull the probe group for `h` into cache. Safe (and a
  /// no-op) on an empty table.
  void prefetch(std::uint64_t h) const noexcept {
    if (ctrl_.empty()) return;
    const std::size_t g = (h >> 7) & (ctrl_.size() / kGroup - 1);
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(ctrl_.data() + g * kGroup);
    __builtin_prefetch(slots_.data() + g * kGroup);
#endif
  }

  template <typename Q>
  [[nodiscard]] V* find(const Q& key) noexcept {
    return find_hashed(hash(key), key);
  }
  template <typename Q>
  [[nodiscard]] const V* find(const Q& key) const noexcept {
    return const_cast<FlatMap*>(this)->find_hashed(hash(key), key);
  }

  /// find() with the hash precomputed by hash() — the second half of a
  /// pipelined probe. Returns nullptr when absent.
  template <typename Q>
  [[nodiscard]] V* find_hashed(std::uint64_t h, const Q& key) noexcept {
    const std::size_t i = find_slot(h, key);
    return i == npos ? nullptr : &slots_[i].second;
  }
  template <typename Q>
  [[nodiscard]] const V* find_hashed(std::uint64_t h,
                                     const Q& key) const noexcept {
    const std::size_t i = find_slot(h, key);
    return i == npos ? nullptr : &slots_[i].second;
  }

  template <typename Q>
  [[nodiscard]] std::size_t count(const Q& key) const noexcept {
    return find(key) != nullptr ? 1 : 0;
  }
  template <typename Q>
  [[nodiscard]] bool contains(const Q& key) const noexcept {
    return find(key) != nullptr;
  }

  template <typename Q>
  [[nodiscard]] V& at(const Q& key) {
    V* v = find(key);
    if (v == nullptr) throw std::out_of_range("FlatMap::at: key not found");
    return *v;
  }
  template <typename Q>
  [[nodiscard]] const V& at(const Q& key) const {
    const V* v = find(key);
    if (v == nullptr) throw std::out_of_range("FlatMap::at: key not found");
    return *v;
  }

  /// Insert (key, V(args...)) if absent; one probe either way. Returns
  /// {slot value pointer, inserted}. The key is only converted to K (e.g.
  /// string_view -> std::string) when an insertion actually happens.
  template <typename Q, typename... Args>
  std::pair<V*, bool> try_emplace(Q&& key, Args&&... args) {
    const std::uint64_t h = hash(key);
    return try_emplace_hashed(h, std::forward<Q>(key),
                              std::forward<Args>(args)...);
  }

  /// try_emplace() with the hash precomputed by hash().
  template <typename Q, typename... Args>
  std::pair<V*, bool> try_emplace_hashed(std::uint64_t h, Q&& key,
                                         Args&&... args) {
    if (ctrl_.empty()) rehash_to(kMinCapacity);
    Probe p = probe_for_insert(h, key);
    if (p.found) return {&slots_[p.index].second, false};
    if (ctrl_[p.index] == kEmpty && growth_left() == 0) {
      rehash_to(full_ >= capacity() / 2 ? capacity() * 2 : capacity());
      p = probe_for_insert(h, key);
    }
    if (ctrl_[p.index] == kDeleted) --deleted_;
    ctrl_[p.index] = h2(h);
    slots_[p.index].first = K(std::forward<Q>(key));
    slots_[p.index].second = V(std::forward<Args>(args)...);
    ++full_;
    return {&slots_[p.index].second, true};
  }

  template <typename Q>
  V& operator[](Q&& key) {
    return *try_emplace(std::forward<Q>(key)).first;
  }

  template <typename Q, typename U>
  std::pair<V*, bool> insert_or_assign(Q&& key, U&& value) {
    auto r = try_emplace(std::forward<Q>(key), std::forward<U>(value));
    if (!r.second) *r.first = std::forward<U>(value);
    return r;
  }

  /// Tombstone the entry; no slot moves, so pointers to other entries
  /// stay valid. Returns whether the key was present.
  template <typename Q>
  bool erase(const Q& key) noexcept {
    const std::size_t i = find_slot(hash(key), key);
    if (i == npos) return false;
    ctrl_[i] = kDeleted;
    --full_;
    ++deleted_;
    return true;
  }

  void swap(FlatMap& other) noexcept {
    ctrl_.swap(other.ctrl_);
    slots_.swap(other.slots_);
    std::swap(full_, other.full_);
    std::swap(deleted_, other.deleted_);
  }

  template <bool Const>
  class Iter {
   public:
    using table_type = std::conditional_t<Const, const FlatMap, FlatMap>;
    using iterator_category = std::forward_iterator_tag;
    using value_type = FlatMap::value_type;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<Const, const value_type*, value_type*>;
    using reference =
        std::conditional_t<Const, const value_type&, value_type&>;
    Iter(table_type* t, std::size_t i) : t_(t), i_(i) { skip(); }
    reference operator*() const { return t_->slots_[i_]; }
    auto* operator->() const { return &t_->slots_[i_]; }
    Iter& operator++() {
      ++i_;
      skip();
      return *this;
    }
    bool operator==(const Iter& o) const { return i_ == o.i_; }
    bool operator!=(const Iter& o) const { return i_ != o.i_; }

   private:
    void skip() {
      while (i_ < t_->ctrl_.size() && (t_->ctrl_[i_] & 0x80u) != 0) ++i_;
    }
    table_type* t_;
    std::size_t i_;
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  iterator begin() noexcept { return {this, 0}; }
  iterator end() noexcept { return {this, ctrl_.size()}; }
  const_iterator begin() const noexcept { return {this, 0}; }
  const_iterator end() const noexcept { return {this, ctrl_.size()}; }

 private:
  static constexpr std::size_t kGroup = 8;
  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::uint8_t kEmpty = 0x80;
  static constexpr std::uint8_t kDeleted = 0xFE;
  static constexpr std::uint64_t kLsb = 0x0101010101010101ULL;
  static constexpr std::uint64_t kMsb = 0x8080808080808080ULL;

  static std::uint8_t h2(std::uint64_t h) noexcept {
    return static_cast<std::uint8_t>(h & 0x7F);
  }

  [[nodiscard]] std::uint64_t load_group(std::size_t g) const noexcept {
    std::uint64_t word;
    std::memcpy(&word, ctrl_.data() + g * kGroup, sizeof(word));
    return word;
  }

  /// Bitmask with 0x80 set in every byte of `group` equal to `b`
  /// (exact: the &~x term suppresses borrow-chain false positives).
  static std::uint64_t match_byte(std::uint64_t group,
                                  std::uint8_t b) noexcept {
    const std::uint64_t x = group ^ (kLsb * b);
    return (x - kLsb) & ~x & kMsb;
  }

  /// Byte index (little-endian byte order) of a match bit.
  static std::size_t match_index(std::uint64_t mask) noexcept {
    return static_cast<std::size_t>(std::countr_zero(mask)) / 8;
  }

  [[nodiscard]] std::size_t growth_left() const noexcept {
    return capacity() - capacity() / 8 - full_ - deleted_;
  }

  /// Index of the live slot holding `key`, or npos.
  template <typename Q>
  [[nodiscard]] std::size_t find_slot(std::uint64_t h,
                                      const Q& key) const noexcept {
    if (ctrl_.empty()) return npos;
    const std::size_t gmask = ctrl_.size() / kGroup - 1;
    const std::uint8_t h2v = h2(h);
    std::size_t g = (h >> 7) & gmask;
    for (std::size_t step = 0;;) {
      const std::uint64_t group = load_group(g);
      for (std::uint64_t m = match_byte(group, h2v); m != 0; m &= m - 1) {
        const std::size_t i = g * kGroup + match_index(m);
        if (Eq{}(slots_[i].first, key)) return i;
      }
      if (match_byte(group, kEmpty) != 0) return npos;
      g = (g + ++step) & gmask;
    }
  }

  /// Index of an existing entry (found == true) or, in one probe, the
  /// slot a new entry should occupy (the first tombstone on the probe
  /// path, else the first empty byte of the terminating group).
  struct Probe {
    std::size_t index;
    bool found;
  };
  template <typename Q>
  [[nodiscard]] Probe probe_for_insert(std::uint64_t h,
                                       const Q& key) const noexcept {
    const std::size_t gmask = ctrl_.size() / kGroup - 1;
    const std::uint8_t h2v = h2(h);
    std::size_t g = (h >> 7) & gmask;
    std::size_t first_deleted = npos;
    for (std::size_t step = 0;;) {
      const std::uint64_t group = load_group(g);
      for (std::uint64_t m = match_byte(group, h2v); m != 0; m &= m - 1) {
        const std::size_t i = g * kGroup + match_index(m);
        if (Eq{}(slots_[i].first, key)) return {i, true};
      }
      if (first_deleted == npos) {
        const std::uint64_t del = match_byte(group, kDeleted);
        if (del != 0) first_deleted = g * kGroup + match_index(del);
      }
      const std::uint64_t empty = match_byte(group, kEmpty);
      if (empty != 0) {
        return {first_deleted != npos ? first_deleted
                                      : g * kGroup + match_index(empty),
                false};
      }
      g = (g + ++step) & gmask;
    }
  }

  /// Re-place every live entry into a table of `new_cap` slots, dropping
  /// tombstones. new_cap == capacity() purges tombstones in place-ish
  /// (fresh arrays, then swap) after erase-heavy churn.
  void rehash_to(std::size_t new_cap) {
    std::vector<std::uint8_t> old_ctrl(new_cap, kEmpty);
    std::vector<value_type> old_slots(new_cap);
    old_ctrl.swap(ctrl_);
    old_slots.swap(slots_);
    const std::size_t gmask = ctrl_.size() / kGroup - 1;
    for (std::size_t i = 0; i < old_ctrl.size(); ++i) {
      if ((old_ctrl[i] & 0x80u) != 0) continue;
      const std::uint64_t h = hash(old_slots[i].first);
      const std::uint8_t h2v = h2(h);
      std::size_t g = (h >> 7) & gmask;
      for (std::size_t step = 0;;) {
        const std::uint64_t empty = match_byte(load_group(g), kEmpty);
        if (empty != 0) {
          const std::size_t j = g * kGroup + match_index(empty);
          ctrl_[j] = h2v;
          slots_[j] = std::move(old_slots[i]);
          break;
        }
        g = (g + ++step) & gmask;
      }
    }
    deleted_ = 0;
  }

  std::vector<std::uint8_t> ctrl_;
  std::vector<value_type> slots_;
  std::size_t full_ = 0;
  std::size_t deleted_ = 0;
};

}  // namespace bac
