// Unit suite for the bacobs observability layer (src/obs): histogram
// bucket layout and merge algebra, quantiles vs a sorted-sample oracle,
// multi-thread merge determinism, the MetricRegistry snapshot/exporters,
// and the TraceWriter/Span JSONL surface (including the disabled path).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace bac::obs {
namespace {

// ---------------------------------------------------------------------
// Histogram: bucket layout
// ---------------------------------------------------------------------

TEST(Histogram, BucketBoundariesPartitionTheAxis) {
  // Lower/upper bounds tile the positive axis: each bucket's upper bound
  // is the next bucket's lower bound, and values land where the bounds
  // say they do.
  for (int b = 1; b < Histogram::kBucketCount - 1; ++b) {
    const double lo = Histogram::bucket_lower(b);
    const double hi = Histogram::bucket_upper(b);
    ASSERT_LT(lo, hi) << "bucket " << b;
    EXPECT_EQ(Histogram::bucket_of(lo), b) << "bucket " << b;
    if (b + 1 < Histogram::kBucketCount - 1) {
      EXPECT_EQ(Histogram::bucket_lower(b + 1), hi) << "bucket " << b;
    }
    // A value just below the upper bound stays in the bucket.
    const double inside = lo + (hi - lo) * 0.999;
    EXPECT_EQ(Histogram::bucket_of(inside), b) << "bucket " << b;
  }
}

TEST(Histogram, UnderflowOverflowAndSpecialValues) {
  EXPECT_EQ(Histogram::bucket_of(0.0), 0);
  EXPECT_EQ(Histogram::bucket_of(-5.0), 0);
  EXPECT_EQ(Histogram::bucket_of(std::ldexp(1.0, Histogram::kMinExp2) / 2),
            0);
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<double>::infinity()),
            Histogram::kBucketCount - 1);
  // Above the top octave: overflow bucket.
  EXPECT_EQ(Histogram::bucket_of(std::ldexp(1.0, Histogram::kMaxExp2 + 1)),
            Histogram::kBucketCount - 1);

  Histogram h;
  h.add(std::numeric_limits<double>::quiet_NaN());  // ignored
  EXPECT_TRUE(h.empty());
  h.add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 1u);
  h.for_each_nonzero([](int b, std::uint64_t n) {
    EXPECT_EQ(b, Histogram::kBucketCount - 1);
    EXPECT_EQ(n, 1u);
  });
}

TEST(Histogram, ZeroSamplesReportZeroQuantiles) {
  // The underflow bucket reports 0 (clamped to [min, max]), not its
  // midpoint: a median of {0, 0, 5} is 0, not ~1.16e-10.
  Histogram h;
  h.add(0.0);
  h.add(0.0);
  h.add(5.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  // Clamping keeps an all-negative underflow sample set at its max.
  Histogram neg;
  neg.add(-3.0);
  EXPECT_EQ(neg.quantile(0.5), -3.0);
  // Tiny positives share the bucket; the clamp lifts 0 to their min.
  Histogram tiny;
  tiny.add(1e-12);
  EXPECT_EQ(tiny.quantile(0.5), 1e-12);
}

TEST(Histogram, SixteenSubBucketsPerOctaveResolution) {
  // Within one octave the sub-buckets are linear: width = 2^e / 16.
  const int b = Histogram::bucket_of(1.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_lower(b), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_upper(b) - Histogram::bucket_lower(b),
                   1.0 / 16.0);
}

// ---------------------------------------------------------------------
// Histogram: summaries and quantiles vs a sorted-sample oracle
// ---------------------------------------------------------------------

TEST(Histogram, EmptySummariesAreNaN) {
  const Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_TRUE(std::isnan(h.min()));
  EXPECT_TRUE(std::isnan(h.max()));
  EXPECT_TRUE(std::isnan(h.mean()));
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
}

TEST(Histogram, QuantilesTrackSortedSamplesWithinBucketResolution) {
  Xoshiro256pp rng(17);
  Histogram h;
  std::vector<double> xs;
  for (int i = 0; i < 50'000; ++i) {
    // Mix scales across several octaves, like a latency distribution.
    const double x = std::exp(6.0 * rng.uniform());  // [1, ~403)
    xs.push_back(x);
    h.add(x);
  }
  EXPECT_EQ(h.count(), xs.size());
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_DOUBLE_EQ(h.min(), sorted.front());
  EXPECT_DOUBLE_EQ(h.max(), sorted.back());
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double exact =
        sorted[static_cast<std::size_t>(std::min<double>(
            static_cast<double>(sorted.size()) - 1,
            std::floor(q * static_cast<double>(sorted.size()))))];
    // Bucket-midpoint estimate: within one sub-bucket (1/16 relative).
    EXPECT_NEAR(h.quantile(q), exact, exact / 16.0 + 1e-9) << "q=" << q;
  }
}

// ---------------------------------------------------------------------
// Histogram: merge algebra
// ---------------------------------------------------------------------

Histogram filled(std::uint64_t seed, int n) {
  Xoshiro256pp rng(seed);
  Histogram h;
  for (int i = 0; i < n; ++i) h.add(rng.uniform() * 1000.0);
  return h;
}

TEST(Histogram, MergeIsCommutative) {
  const Histogram a = filled(1, 4000), b = filled(2, 3000);
  Histogram ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  EXPECT_TRUE(ab.same_counts(ba));
  EXPECT_EQ(ab.count(), ba.count());
  EXPECT_DOUBLE_EQ(ab.min(), ba.min());
  EXPECT_DOUBLE_EQ(ab.max(), ba.max());
  for (const double q : {0.5, 0.99})
    EXPECT_DOUBLE_EQ(ab.quantile(q), ba.quantile(q));
}

TEST(Histogram, MergeIsAssociative) {
  const Histogram a = filled(3, 1000), b = filled(4, 2000),
                  c = filled(5, 3000);
  Histogram left = a;  // (a + b) + c
  left.merge(b);
  left.merge(c);
  Histogram bc = b;  // a + (b + c)
  bc.merge(c);
  Histogram right = a;
  right.merge(bc);
  EXPECT_TRUE(left.same_counts(right));
  EXPECT_DOUBLE_EQ(left.quantile(0.9), right.quantile(0.9));
}

TEST(Histogram, MergeWithEmptySidesIsIdentity) {
  const Histogram a = filled(6, 500);
  Histogram onto_empty;  // empty.merge(a) == a
  onto_empty.merge(a);
  EXPECT_TRUE(onto_empty.same_counts(a));
  EXPECT_DOUBLE_EQ(onto_empty.min(), a.min());
  Histogram from_empty = a;  // a.merge(empty) == a
  from_empty.merge(Histogram());
  EXPECT_TRUE(from_empty.same_counts(a));
}

TEST(Histogram, ConcurrentShardMergeMatchesSingleThread) {
  // The shard-fold contract: N workers each filling a local histogram,
  // merged in any order, must reproduce the single-thread bucket counts
  // (and hence identical quantiles) for the same sample multiset.
  constexpr int kThreads = 4, kPer = 10'000;
  Histogram serial;
  for (int w = 0; w < kThreads; ++w) {
    Xoshiro256pp rng(100 + static_cast<std::uint64_t>(w));
    for (int i = 0; i < kPer; ++i) serial.add(rng.uniform() * 50.0);
  }
  std::vector<Histogram> locals(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w)
    workers.emplace_back([&locals, w] {
      Xoshiro256pp rng(100 + static_cast<std::uint64_t>(w));
      for (int i = 0; i < kPer; ++i) locals[static_cast<std::size_t>(w)]
          .add(rng.uniform() * 50.0);
    });
  for (std::thread& th : workers) th.join();
  Histogram merged;
  for (int w = kThreads - 1; w >= 0; --w)  // deliberately reversed order
    merged.merge(locals[static_cast<std::size_t>(w)]);
  EXPECT_TRUE(merged.same_counts(serial));
  EXPECT_DOUBLE_EQ(merged.quantile(0.99), serial.quantile(0.99));
  EXPECT_DOUBLE_EQ(merged.min(), serial.min());
  EXPECT_DOUBLE_EQ(merged.max(), serial.max());
}

// ---------------------------------------------------------------------
// MetricRegistry + exporters
// ---------------------------------------------------------------------

TEST(MetricRegistry, SnapshotIsNameSortedAndStable) {
  MetricRegistry reg;
  reg.counter("zeta").inc(3);
  reg.counter("alpha").inc();
  reg.gauge("wall_ms").set(12.5);
  Histogram h;
  h.add(1.0);
  reg.merge_histogram("lat", h);
  reg.merge_histogram("lat", h);  // folds, not replaces

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[0].second, 1u);
  EXPECT_EQ(snap.counters[1].first, "zeta");
  EXPECT_EQ(snap.counters[1].second, 3u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 12.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count(), 2u);
  // Handles are stable: the same name returns the same counter.
  EXPECT_EQ(&reg.counter("alpha"), &reg.counter("alpha"));
}

TEST(MetricRegistry, JsonExportCarriesSchemaAndNaNAsNull) {
  MetricRegistry reg;
  reg.counter("sim_requests_total").inc(7);
  reg.merge_histogram("empty_hist", Histogram());
  std::ostringstream os;
  write_metrics_json(os, reg.snapshot(), "test_obs");
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"bacobs-metrics-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"tool\": \"test_obs\""), std::string::npos);
  EXPECT_NE(json.find("\"sim_requests_total\": 7"), std::string::npos);
  // Empty-histogram summaries serialize as null, never NaN.
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_NE(json.find("\"p50\": null"), std::string::npos);
}

TEST(MetricRegistry, PrometheusExportShape) {
  MetricRegistry reg;
  reg.counter("requests_total").inc(5);
  reg.gauge("rss_mb").set(3.0);
  Histogram h;
  h.add(2.0);
  h.add(std::numeric_limits<double>::infinity());
  reg.merge_histogram("lat_us", h);
  std::ostringstream os;
  write_prometheus_text(os, reg.snapshot());
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE bac_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("bac_requests_total 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE bac_lat_us histogram"), std::string::npos);
  EXPECT_NE(text.find("bac_lat_us_count 2"), std::string::npos);
  // Exactly one +Inf bucket line, counting everything (cumulative).
  const std::string inf_line = "le=\"+Inf\"} 2";
  EXPECT_NE(text.find(inf_line), std::string::npos);
  EXPECT_EQ(text.find(inf_line), text.rfind(inf_line));
}

// ---------------------------------------------------------------------
// TraceWriter + Span JSONL
// ---------------------------------------------------------------------

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(TraceWriter, SpanEmitsBeginAndEndWithFields) {
  const std::string path = ::testing::TempDir() + "test_obs_trace.jsonl";
  {
    TraceWriter writer(path);
    Span span(&writer, "work");
    span.num("items", 42.0);
    span.str("mode", "test");
    span.end();
    Span scoped(&writer, "scoped");
  }  // scoped's end on destruction
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].find("\"ev\": \"span_begin\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"name\": \"work\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"ev\": \"span_end\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"dur_ms\": "), std::string::npos);
  EXPECT_NE(lines[1].find("\"items\": 42"), std::string::npos);
  EXPECT_NE(lines[1].find("\"mode\": \"test\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"ev\": \"span_begin\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"name\": \"scoped\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"ev\": \"span_end\""), std::string::npos);
  // seq is a gapless total order from 0.
  for (std::size_t i = 0; i < lines.size(); ++i)
    EXPECT_NE(lines[i].find("\"seq\": " + std::to_string(i)),
              std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceWriter, DisabledSpanEmitsNothingAndIsCheap) {
  // The contract every call site relies on: a null writer makes Span a
  // pointer test — no allocation, no clock read, no emission.
  Span span(nullptr, "never");
  span.num("x", 1.0);
  span.end();  // must be safe twice
  span.end();
  SUCCEED();
}

TEST(TraceWriter, ThrowsOnUnopenablePath) {
  EXPECT_THROW(TraceWriter("/nonexistent-dir/trace.jsonl"),
               std::runtime_error);
}

}  // namespace
}  // namespace bac::obs
