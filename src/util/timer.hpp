// Monotonic timing: the ONE sanctioned place to read a clock in src/ (the
// baclint `raw-chrono-timing` rule forbids direct
// std::chrono::*_clock::now() calls everywhere else, so timing stays
// greppable and mockable at a single call site).
//
//   - Stopwatch: steady-clock stopwatch for phase timing in benches and
//     the obs layer's spans.
//   - TickClock: a raw tick counter for per-request latency samples on
//     hot paths, where a steady_clock read (~20 ns) would cost as much as
//     the work it times.
#pragma once

#include <chrono>
#include <cstdint>

namespace bac {

class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }
  [[nodiscard]] double millis() const { return seconds() * 1e3; }
  [[nodiscard]] double micros() const { return seconds() * 1e6; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Raw tick counter with a once-per-process microsecond rate.
///
/// now() is an unfenced RDTSC on x86-64 (a few ns; it does not wait for
/// earlier loads, so timing one memory-bound request does not also absorb
/// the cache misses the CPU would overlap with the next one) and a
/// steady_clock read elsewhere. Ticks convert to microseconds with a rate
/// measured against Stopwatch by the first TickClock constructed in the
/// process — a ~1 ms spin, so construct one outside any lock and outside
/// timed regions; later constructions reuse the rate.
class TickClock {
 public:
  TickClock() : micros_per_tick_(calibrated_micros_per_tick()) {}

  [[nodiscard]] static std::uint64_t now() noexcept {
#if defined(__x86_64__)
    return __builtin_ia32_rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
  }

  /// Microseconds from tick `from` to tick `to`; 0 when `to` reads
  /// earlier (unfenced reads may reorder by a few cycles).
  [[nodiscard]] double micros(std::uint64_t from,
                              std::uint64_t to) const noexcept {
    const auto ticks = static_cast<std::int64_t>(to - from);
    return ticks > 0 ? static_cast<double>(ticks) * micros_per_tick_ : 0.0;
  }

 private:
  static double calibrated_micros_per_tick() {
    static const double rate = [] {
      struct Reading {
        double us;
        std::uint64_t ticks;
      };
      // The tightest of 8 (Stopwatch, tick, Stopwatch) triples, so a
      // preemption between the two clocks cannot skew the rate.
      const Stopwatch clock;
      const auto read = [&clock] {
        Reading best{0, 0};
        double best_gap = 0;
        for (int i = 0; i < 8; ++i) {
          const double before = clock.micros();
          const std::uint64_t ticks = now();
          const double gap = clock.micros() - before;
          if (i == 0 || gap < best_gap) {
            best_gap = gap;
            best = {before + gap / 2, ticks};
          }
        }
        return best;
      };
      const Reading start = read();
      Reading end = read();
      while (end.us - start.us < 1000.0) end = read();
      return (end.us - start.us) / static_cast<double>(end.ticks - start.ticks);
    }();
    return rate;
  }

  double micros_per_tick_;
};

}  // namespace bac
