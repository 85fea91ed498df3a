// The metrics registry: counter/gauge/histogram semantics and the deterministic
// JSON export that --metrics-out relies on.

#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>

#include "src/obs/json_format.h"

namespace jockey {
namespace {

TEST(MetricsTest, CountersStartAtZeroAndAccumulate) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.CounterValue("absent"), 0);
  registry.Add("hits");
  registry.Add("hits", 4);
  EXPECT_EQ(registry.CounterValue("hits"), 5);
  EXPECT_FALSE(registry.empty());
}

TEST(MetricsTest, GaugesKeepLastValue) {
  MetricsRegistry registry;
  registry.SetGauge("speed", 0.5);
  registry.SetGauge("speed", 0.75);
  EXPECT_DOUBLE_EQ(registry.Snapshot().gauges.at("speed"), 0.75);
}

// The default latency edges are a published contract (progress dashboards and the
// trace tests depend on runs of different binaries bucketing identically): powers of
// two from 1/4 s to 16384 s.
TEST(MetricsTest, DefaultLatencyEdgesArePinned) {
  const std::vector<double>& edges = DefaultLatencySecondsEdges();
  ASSERT_EQ(edges.size(), 17u);
  EXPECT_DOUBLE_EQ(edges.front(), 0.25);
  EXPECT_DOUBLE_EQ(edges.back(), 16384.0);
  for (size_t i = 1; i < edges.size(); ++i) {
    EXPECT_DOUBLE_EQ(edges[i], 2.0 * edges[i - 1]) << "edge " << i;
  }
}

TEST(MetricsTest, HistogramBucketsHaveInclusiveUpperEdges) {
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(0.5);  // <= 1        -> bucket 0
  h.Observe(1.0);  // == edge 1   -> bucket 0 (inclusive upper edge)
  h.Observe(1.5);  //             -> bucket 1
  h.Observe(4.0);  // == edge 4   -> bucket 2
  h.Observe(9.0);  // > last edge -> overflow
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 2);
  EXPECT_EQ(h.counts()[1], 1);
  EXPECT_EQ(h.counts()[2], 1);
  EXPECT_EQ(h.counts()[3], 1);
  EXPECT_EQ(h.total_count(), 5);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 9.0);
}

TEST(MetricsTest, GetHistogramKeepsOriginalEdges) {
  MetricsRegistry registry;
  registry.GetHistogram("h", {1.0, 2.0});
  Histogram& again = registry.GetHistogram("h", {10.0, 20.0, 30.0});
  EXPECT_EQ(again.edges(), (std::vector<double>{1.0, 2.0}));
}

TEST(MetricsTest, ObserveUsesDefaultLatencyEdges) {
  MetricsRegistry registry;
  registry.Observe("latency", 3.0);
  const Histogram* h = registry.FindHistogram("latency");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->edges(), DefaultLatencySecondsEdges());
  EXPECT_EQ(h->total_count(), 1);
}

// Identical metric activity must export byte-identically regardless of the order
// instruments were touched — the property --metrics-out diffs rely on.
TEST(MetricsTest, WriteJsonIsDeterministicAcrossInsertionOrder) {
  MetricsRegistry a;
  a.Add("x", 2);
  a.SetGauge("g", 1.5);
  a.Observe("h", 3.0);
  MetricsRegistry b;
  b.Observe("h", 3.0);
  b.Add("x");
  b.SetGauge("g", 7.0);
  b.SetGauge("g", 1.5);
  b.Add("x");
  std::ostringstream ja, jb;
  a.WriteJson(ja);
  b.WriteJson(jb);
  EXPECT_EQ(ja.str(), jb.str());
}

TEST(MetricsTest, JsonNumberRoundTripsDoubles) {
  for (double v : {0.1, 1.0 / 3.0, 1e-300, 123456789.123456789, -0.0, 2.5}) {
    std::string text = JsonNumber(v);
    double parsed = std::stod(text);
    uint64_t want = 0;
    uint64_t got = 0;
    std::memcpy(&want, &v, sizeof(v));
    std::memcpy(&got, &parsed, sizeof(parsed));
    EXPECT_EQ(got, want) << text;  // bit equality: keeps the sign of -0.0 too
  }
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
}

TEST(MetricsTest, JsonStringEscapesControlCharacters) {
  EXPECT_EQ(JsonString("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
}

TEST(MetricsTest, QuantilesAreExactNotBucketEdges) {
  Histogram h(DefaultLatencySecondsEdges());
  // 1..100: exact quantiles are interpolated order statistics, none of which are
  // powers of two — proving the values come from retained samples, not edges.
  for (int i = 1; i <= 100; ++i) {
    h.Observe(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 50.5);
  EXPECT_DOUBLE_EQ(h.Quantile(0.9), 90.1);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 100.0);
  // Empty histogram: defined, zero.
  Histogram empty(DefaultLatencySecondsEdges());
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);
}

// p99.9 is the tail the SLO postmortems quote; pin its exact interpolated value so
// the export can never silently degrade to a bucket-edge approximation.
TEST(MetricsTest, P999IsExactInterpolatedOrderStatistic) {
  Histogram h(DefaultLatencySecondsEdges());
  for (int i = 1; i <= 1000; ++i) {
    h.Observe(static_cast<double>(i));
  }
  // pos = 0.999 * 999 = 998.001 -> samples 999 and 1000 interpolated at 0.001.
  EXPECT_DOUBLE_EQ(h.Quantile(0.999), 999.001);
  // Fewer samples than the tail resolves: clamps to interpolation near the max,
  // never past it.
  Histogram small(DefaultLatencySecondsEdges());
  small.Observe(1.0);
  small.Observe(2.0);
  EXPECT_DOUBLE_EQ(small.Quantile(0.999), 1.999);
}

TEST(MetricsTest, JsonExportIncludesExactQuantiles) {
  MetricsRegistry registry;
  for (int i = 1; i <= 10; ++i) {
    registry.Observe("lat", 3.0 * i);
  }
  std::ostringstream os;
  registry.WriteJson(os);
  std::string json = os.str();
  EXPECT_NE(json.find("\"p50\": 16.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p90\": "), std::string::npos);
  EXPECT_NE(json.find("\"p99\": "), std::string::npos);
  // p99.9 of 3,6,...,30: pos = 0.999 * 9 = 8.991 -> interpolate samples 27 and 30
  // at frac 0.991 (~29.973). Match the export byte-for-byte against the same
  // interpolation arithmetic so a formatting or rounding change is caught.
  const Histogram* h = registry.FindHistogram("lat");
  ASSERT_NE(h, nullptr);
  double p999 = h->Quantile(0.999);
  EXPECT_NEAR(p999, 29.973, 1e-9);
  EXPECT_NE(json.find("\"p999\": " + JsonNumber(p999)), std::string::npos) << json;
}

TEST(MetricsTest, SnapshotListsEverything) {
  MetricsRegistry registry;
  registry.Add("c1");
  registry.Add("c2", 3);
  registry.SetGauge("g1", 9.0);
  registry.Observe("h1", 1.0);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters.at("c2"), 3);
  EXPECT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.histograms.size(), 1u);
}

}  // namespace
}  // namespace jockey
