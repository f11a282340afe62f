// Unit tests for util: RNG determinism/quality smoke checks, the zipf
// sampler's exactness, streaming statistics, tables, thread pool, and the
// certified bracket's tests, ends and bisection.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "util/certified_bracket.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/zipf_sampler.hpp"

namespace bac {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Xoshiro256pp a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    (void)c();
  }
  Xoshiro256pp d(42), e(43);
  int diff = 0;
  for (int i = 0; i < 64; ++i)
    if (d() != e()) ++diff;
  EXPECT_GT(diff, 60) << "different seeds should diverge immediately";
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256pp rng(7);
  double sum = 0;
  for (int i = 0; i < 100'000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100'000, 0.5, 0.01);
}

TEST(Rng, BelowIsUnbiasedEnough) {
  Xoshiro256pp rng(11);
  std::vector<int> buckets(10, 0);
  const int trials = 200'000;
  for (int i = 0; i < trials; ++i) ++buckets[rng.below(10)];
  for (int b : buckets) {
    EXPECT_NEAR(static_cast<double>(b) / trials, 0.1, 0.01);
  }
}

TEST(Rng, RangeIsInclusive) {
  Xoshiro256pp rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.range(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BelowZeroThrows) {
  // Regression: below(0) used to return 0, which lies outside [0, 0) —
  // callers drawing from an empty universe got a silently wrong index.
  Xoshiro256pp rng(9);
  EXPECT_THROW((void)rng.below(0), std::invalid_argument);
  // bound == 1 has exactly one legal value.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInvertedBoundsThrow) {
  // Regression: range(lo, hi) with hi < lo used to wrap hi - lo + 1 to a
  // huge unsigned bound and return values far outside [lo, hi].
  Xoshiro256pp rng(10);
  EXPECT_THROW((void)rng.range(3, 2), std::invalid_argument);
  EXPECT_THROW((void)rng.range(0, -1), std::invalid_argument);
  // Degenerate single-point interval is legal.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.range(5, 5), 5);
}

TEST(Rng, RangeExtremeSpansStayInBounds) {
  // The width arithmetic must not overflow for spans near 2^63.
  Xoshiro256pp rng(12);
  const auto lo = std::numeric_limits<std::int64_t>::min();
  const auto hi = std::numeric_limits<std::int64_t>::max();
  for (int i = 0; i < 100; ++i) {
    const auto v = rng.range(lo, hi);
    EXPECT_GE(v, lo);
    EXPECT_LE(v, hi);
  }
  for (int i = 0; i < 100; ++i) {
    const auto v = rng.range(lo, lo + 1);
    EXPECT_TRUE(v == lo || v == lo + 1);
  }
}

TEST(Rng, SubstreamsDiffer) {
  Xoshiro256pp root(5);
  auto s0 = root.substream(0);
  auto s1 = root.substream(1);
  int diff = 0;
  for (int i = 0; i < 64; ++i)
    if (s0() != s1()) ++diff;
  EXPECT_GT(diff, 60);
}

TEST(ZipfSampler, TableIsTheWeightsSummedInIndexOrder) {
  const ZipfSampler zipf(100, 0.9);
  double total = 0;
  for (int i = 0; i < 100; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), 0.9);
    EXPECT_EQ(zipf.cumulative()[static_cast<std::size_t>(i)], total);
  }
  EXPECT_EQ(zipf.total(), total);
  EXPECT_THROW(ZipfSampler(0, 0.9), std::invalid_argument);
}

TEST(ZipfSampler, GuidedIndexEqualsLowerBoundEverywhere) {
  // The guide table must never change an answer: compare index(u) with
  // a plain lower_bound over the same table at every cumulative value
  // and guide-cell edge, one ulp either side of each, and at random u.
  // alpha = 0 puts cell edges exactly on cumulative values; alpha = 8
  // gives long flat runs of equal cumulative values.
  const auto reference = [](const std::vector<double>& cum, double u) {
    const auto it = std::lower_bound(cum.begin(), cum.end(), u);
    return static_cast<int>(std::min<std::ptrdiff_t>(
        it - cum.begin(), static_cast<std::ptrdiff_t>(cum.size()) - 1));
  };
  const double inf = std::numeric_limits<double>::infinity();
  constexpr int kRandomPerTable = 24'000;  // 10^6 over the 42 tables
  Xoshiro256pp rng(2024);
  for (const int n : {1, 2, 3, 5, 64, 4096, 1 << 14}) {
    for (const double alpha : {0.0, 0.5, 0.9, 1.1, 3.0, 8.0}) {
      const ZipfSampler zipf(n, alpha);
      const std::vector<double>& cum = zipf.cumulative();
      const double total = zipf.total();
      std::vector<double> probes = {0.0, std::nextafter(1.0, 0.0) * total,
                                    total, std::nextafter(total, inf), inf,
                                    -1.0, std::nan("")};
      const auto around = [&](double u) {
        probes.push_back(std::nextafter(u, -inf));
        probes.push_back(u);
        probes.push_back(std::nextafter(u, inf));
      };
      for (const double c : cum) around(c);
      for (int j = 0; j < n; ++j)
        around(static_cast<double>(j) * (total / static_cast<double>(n)));
      for (const double u : probes)
        ASSERT_EQ(zipf.index(u), reference(cum, u))
            << "n=" << n << " alpha=" << alpha << " u=" << u;
      for (int r = 0; r < kRandomPerTable; ++r) {
        const double u = rng.uniform() * total;
        if (zipf.index(u) != reference(cum, u))
          FAIL() << "n=" << n << " alpha=" << alpha << " u=" << u;
      }
    }
  }
}

TEST(Stats, WelfordMatchesClosedForm) {
  StreamingStats s;
  const std::vector<double> xs{1, 2, 3, 4, 5, 6};
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_NEAR(s.variance(), 3.5, 1e-12);
}

TEST(Stats, QuantileInterpolates) {
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.0), 1);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 1.0), 4);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.5), 2.5);
}

TEST(Stats, RegressionSlopeRecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(2.5 * i + 7);
  }
  EXPECT_NEAR(regression_slope(x, y), 2.5, 1e-9);
}

TEST(Table, PrintsAlignedAndCsvRoundtrips) {
  Table t({"alg", "cost"});
  t.row().add("LRU").add(12.345, 2);
  t.row().add("Opt").add(3LL);
  std::ostringstream os;
  t.print(os, "demo");
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("LRU"), std::string::npos);
  EXPECT_NE(s.find("12.35"), std::string::npos);
  EXPECT_NE(s.find("Opt"), std::string::npos);
}

TEST(ThreadPool, RunsAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for_indexed(100, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForRunsAtMostSizeBodiesAtOnce) {
  // The caller joins the work, so it must count as one of the size()
  // participants: a 1-worker pool (bacsim --threads 1) used to run two
  // bodies at once, and an N-worker pool N + 1.
  for (const std::size_t workers : {1u, 2u, 4u}) {
    ThreadPool pool(workers);
    std::atomic<int> in_flight{0};
    std::atomic<int> peak{0};
    pool.parallel_for_indexed(24, [&](std::size_t) {
      const int now = ++in_flight;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      --in_flight;
    });
    EXPECT_GE(peak.load(), 1);
    EXPECT_LE(peak.load(), static_cast<int>(pool.size()))
        << workers << " workers";
  }
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_indexed(
                   10,
                   [&](std::size_t i) {
                     if (i == 5) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  // Regression: submit() on a stopped pool used to enqueue a task no
  // worker would ever run, so the returned future blocked forever.
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_TRUE(pool.stopped());
  EXPECT_THROW((void)pool.submit([] { return 1; }), std::runtime_error);
}

TEST(ThreadPool, ParallelForAfterShutdownThrows) {
  // Must not silently fall back to serial execution on a dead pool.
  ThreadPool pool(2);
  pool.shutdown();
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for_indexed(4, [&](std::size_t) { ran++; }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPool, ShutdownDrainsQueuedWorkAndIsIdempotent) {
  ThreadPool pool(1);
  std::atomic<int> done{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 8; ++i)
    futs.push_back(pool.submit([&] { done++; }));
  pool.shutdown();
  for (auto& f : futs) f.get();  // all queued tasks ran before the join
  EXPECT_EQ(done.load(), 8);
  pool.shutdown();  // second call is a no-op
  EXPECT_EQ(pool.size(), 0u);
}

TEST(ThreadPool, ConcurrentShutdownBothObserveQuiescence) {
  // Regression: shutdown() used to join workers outside the lock, so a
  // second concurrent caller could return while the first was still
  // joining — "shutdown returned" did not mean "no task is running".
  // Now the whole join is serialized under join_mutex_, so *every*
  // caller that returns from shutdown() must see all queued work done.
  for (int round = 0; round < 16; ++round) {
    ThreadPool pool(2);
    std::atomic<int> done{0};
    for (int i = 0; i < 4; ++i)
      (void)pool.submit([&] { done++; });
    std::atomic<bool> a_ok{false}, b_ok{false};
    std::thread a([&] {
      pool.shutdown();
      a_ok.store(done.load() == 4);
    });
    std::thread b([&] {
      pool.shutdown();
      b_ok.store(done.load() == 4);
    });
    a.join();
    b.join();
    EXPECT_TRUE(a_ok.load()) << "round " << round;
    EXPECT_TRUE(b_ok.load()) << "round " << round;
    EXPECT_EQ(pool.size(), 0u);
  }
}

// --- certified bracket -------------------------------------------------------

/// The last double in [lo, hi] where `holds` is true, for `holds` true at
/// lo, false at hi and monotone between (positive doubles order like
/// their bit patterns).
double last_true(double lo, double hi,
                 const std::function<bool(double)>& holds) {
  auto a = std::bit_cast<std::uint64_t>(lo);
  auto b = std::bit_cast<std::uint64_t>(hi);
  while (b - a > 1) {
    const std::uint64_t mid = a + (b - a) / 2;
    if (holds(std::bit_cast<double>(mid))) a = mid;
    else b = mid;
  }
  return std::bit_cast<double>(a);
}

TEST(CertifiedBracket, CertifiesBelowAndAboveAtTheirBounds) {
  // Each test flips at one double. There it is sound: in long double,
  // every reading its model allows on its side is below (above) rhs. One
  // ulp past it the test refuses, and the flip sits within a few rel *
  // rhs + abs of rhs, so the test is not needlessly strict either.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const ErrorModel e : {kExpModel, ErrorModel{0x1p-40, 0x1p-30},
                             ErrorModel{1e-12, 1e-13}}) {
    for (const double rhs : {1.0, 3.7, 512.0}) {
      using Long = long double;
      const Long rel = e.rel, abs = e.abs;
      const double below = last_true(0.0, rhs, [&](double v) {
        return certifies_below(v, rhs, e);
      });
      EXPECT_TRUE(certifies_below(below, rhs, e));
      EXPECT_FALSE(certifies_below(std::nextafter(below, kInf), rhs, e));
      EXPECT_LT((below + abs) * (1 + rel) / (1 - rel) + abs, Long{rhs});
      EXPECT_GT(below, rhs - 8.0 * (e.rel * rhs + e.abs));

      // certifies_above is false up to its flip and true from it on.
      const double above = std::nextafter(
          last_true(0.0, 2.0 * rhs,
                    [&](double v) { return !certifies_above(v, rhs, e); }),
          kInf);
      EXPECT_TRUE(certifies_above(above, rhs, e));
      EXPECT_FALSE(certifies_above(std::nextafter(above, 0.0), rhs, e));
      EXPECT_GE((above - abs) * (1 - rel) / (1 + rel) - abs, Long{rhs});
      EXPECT_LT(above, rhs + 8.0 * (e.rel * rhs + e.abs));
    }
  }
}

/// A rounded evaluation of a monotone F: F(x) (1 + rel h(x)), h in
/// [-1, 1] scrambled from x's bits, so f^ is not monotone at its last
/// digits and a bracket must not trust it there.
double noisy(double f, double x, double rel) {
  std::uint64_t h = std::bit_cast<std::uint64_t>(x) * 0x9E3779B97F4A7C15ULL;
  h ^= h >> 29;
  const double unit = static_cast<double>(h >> 11) * 0x1p-53;  // [0, 1)
  return f * (1.0 + rel * (2.0 * unit - 1.0));
}

/// The 64-halving bisection of [lo, hi] with its fixed-point stop, asking
/// `below(mid)`; returns its hi.
double bisect(double lo, double hi, const std::function<bool(double)>& below) {
  for (int iter = 0; iter < 64; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const bool fixed_point = mid == lo || mid == hi;
    if (below(mid)) lo = mid;
    else hi = mid;
    if (fixed_point) break;
  }
  return hi;
}

TEST(CertifiedBracket, WrongEstimatesLeaveTheirEndsOpen) {
  // Rising F(x) = x^2 + 1 on [0, 4] and falling G(x) = 9.6 - x^2, read
  // through f^ within rel of F, asking "F below 5.3?" and "G above 5.3?"
  // (root sqrt(4.3) for both). An end a reading cannot certify stays
  // open; kept anyway, it would decide midpoints the plain bisection
  // decides the other way. Through any of these brackets the bisection
  // ends on the plain bisection's bits.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kRel = 1e-10;
  const ErrorModel e{kRel, 0.0};
  const double rhs = 5.3;
  const double root = std::sqrt(4.3);
  for (const bool rising : {true, false}) {
    const auto read = [&](double x) {
      return noisy(rising ? x * x + 1.0 : 9.6 - x * x, x, kRel);
    };
    const auto reads_below = [&](double x) {
      return rising ? read(x) < rhs : read(x) >= rhs;
    };
    const auto certifies = [&](double end, bool lower) {
      const double v = read(end);
      return lower == rising ? certifies_below(v, rhs, e)
                             : certifies_above(v, rhs, e);
    };
    const double plain = bisect(0.0, 4.0, reads_below);
    struct Case {
      double estimate, width;
      bool below_open, above_open;
    };
    for (const Case c : {Case{root, 1e-6, false, false},   // right
                         Case{3.0, 0.5, true, false},      // too high
                         Case{1.0, 0.5, false, true},      // too low
                         Case{root, 1e-13, true, true}}) { // too narrow
      const CertifiedBracket b =
          certify_bracket(c.estimate, c.width, 0.0, 4.0, certifies);
      EXPECT_EQ(b.below == -kInf, c.below_open)
          << (rising ? "rising" : "falling") << " estimate " << c.estimate;
      EXPECT_EQ(b.above == kInf, c.above_open)
          << (rising ? "rising" : "falling") << " estimate " << c.estimate;
      int evaluations = 0;
      const double through = bisect(0.0, 4.0, [&](double x) {
        return b.below_at(x, [&](double y) {
          ++evaluations;
          return reads_below(y);
        });
      });
      EXPECT_EQ(std::bit_cast<std::uint64_t>(through),
                std::bit_cast<std::uint64_t>(plain))
          << (rising ? "rising" : "falling") << " estimate " << c.estimate;
      if (!c.below_open && !c.above_open) {
        EXPECT_LT(evaluations, 40);
      }
    }
  }
}

TEST(CertifiedBracket, QuotientPreimageEndsAreTheExtremeXs) {
  // For y = fl(x / c): the lower end is the largest x with fl(x / c) <=
  // y.below and the upper end the smallest x with fl(x / c) >= y.above,
  // so moving either one ulp outward leaves its side. Open ends stay open.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Xoshiro256pp rng(86);
  for (int i = 0; i < 20000; ++i) {
    const double c = std::exp2(60.0 * rng.uniform() - 30.0);
    const double y = std::exp2(40.0 * rng.uniform() - 30.0);
    const CertifiedBracket in_y{y, y * (1.0 + 0x1p-40)};
    const CertifiedBracket x = quotient_preimage(in_y, c);
    ASSERT_LE(x.below / c, in_y.below) << "c=" << c << " y=" << y;
    ASSERT_GT(std::nextafter(x.below, kInf) / c, in_y.below)
        << "c=" << c << " y=" << y;
    ASSERT_GE(x.above / c, in_y.above) << "c=" << c << " y=" << y;
    ASSERT_LT(std::nextafter(x.above, -kInf) / c, in_y.above)
        << "c=" << c << " y=" << y;
  }
  const CertifiedBracket open = quotient_preimage(CertifiedBracket{}, 3.0);
  EXPECT_EQ(open.below, -kInf);
  EXPECT_EQ(open.above, kInf);
}

}  // namespace
}  // namespace bac
