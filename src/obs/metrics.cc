#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "src/obs/json_format.h"

namespace jockey {

const std::vector<double>& DefaultLatencySecondsEdges() {
  static const std::vector<double> kEdges = [] {
    std::vector<double> edges;
    for (double edge = 0.25; edge <= 16384.0; edge *= 2.0) {
      edges.push_back(edge);
    }
    return edges;
  }();
  return kEdges;
}

Histogram::Histogram(std::vector<double> edges) : edges_(std::move(edges)) {
  counts_.assign(edges_.size() + 1, 0);
  // Detect geometric power-of-two edges (the default latency buckets): bucket lookup
  // then reduces to exponent arithmetic instead of a binary search per observation —
  // Observe sits on the cluster simulator's per-completion path.
  pow2_edges_ = edges_.size() >= 2;
  for (size_t i = 0; pow2_edges_ && i < edges_.size(); ++i) {
    int exp = 0;
    if (std::frexp(edges_[i], &exp) != 0.5) {
      pow2_edges_ = false;  // not an exact power of two
    } else if (i == 0) {
      first_edge_exp_ = exp - 1;  // edges_[0] == 2^(exp - 1)
    } else if (edges_[i] != 2.0 * edges_[i - 1]) {
      pow2_edges_ = false;
    }
  }
}

void Histogram::Observe(double value) {
  size_t bucket;
  if (pow2_edges_ && std::isfinite(value)) {
    if (value <= edges_.front()) {
      bucket = 0;
    } else if (value > edges_.back()) {
      bucket = edges_.size();
    } else {
      int exp = 0;
      double mant = std::frexp(value, &exp);
      // value = mant * 2^exp with mant in [0.5, 1): a value in (2^(k-1), 2^k] belongs
      // to the bucket whose (inclusive) upper edge is 2^k — that is exponent exp
      // unless value is exactly a power of two (mant == 0.5), where it is exp - 1.
      int edge_exp = mant == 0.5 ? exp - 1 : exp;
      bucket = static_cast<size_t>(edge_exp - first_edge_exp_);
    }
  } else {
    bucket = static_cast<size_t>(std::upper_bound(edges_.begin(), edges_.end(), value) -
                                 edges_.begin());
    // upper_bound finds the first edge strictly greater; shift so that a value equal
    // to an edge lands in that edge's bucket (edges are inclusive upper bounds).
    if (bucket > 0 && value == edges_[bucket - 1]) {
      --bucket;
    }
  }
  ++counts_[bucket];
  ++total_count_;
  sum_ += value;
  samples_.push_back(value);
}

double Histogram::Quantile(double q) const {
  if (samples_.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  q = std::clamp(q, 0.0, 1.0);
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

void MetricsRegistry::Add(const std::string& name, int64_t delta) { counters_[name] += delta; }

int64_t MetricsRegistry::CounterValue(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

int64_t* MetricsRegistry::CounterSlot(const std::string& name) { return &counters_[name]; }

void MetricsRegistry::SetGauge(const std::string& name, double value) {
  gauges_[name] = value;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& edges) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, Histogram(edges)).first;
  }
  return it->second;
}

void MetricsRegistry::Observe(const std::string& name, double value) {
  GetHistogram(name, DefaultLatencySecondsEdges()).Observe(value);
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  return MetricsSnapshot{counters_, gauges_, histograms_};
}

void MetricsRegistry::WriteJson(std::ostream& os) const {
  os << "{\n  \"counters\": {";
  const char* sep = "";
  for (const auto& [name, value] : counters_) {
    os << sep << "\n    " << JsonString(name) << ": " << value;
    sep = ",";
  }
  os << (counters_.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  sep = "";
  for (const auto& [name, value] : gauges_) {
    os << sep << "\n    " << JsonString(name) << ": " << JsonNumber(value);
    sep = ",";
  }
  os << (gauges_.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  sep = "";
  for (const auto& [name, histogram] : histograms_) {
    os << sep << "\n    " << JsonString(name) << ": {\"edges\": [";
    const char* inner = "";
    for (double edge : histogram.edges()) {
      os << inner << JsonNumber(edge);
      inner = ", ";
    }
    os << "], \"counts\": [";
    inner = "";
    for (int64_t count : histogram.counts()) {
      os << inner << count;
      inner = ", ";
    }
    os << "], \"count\": " << histogram.total_count()
       << ", \"sum\": " << JsonNumber(histogram.sum())
       << ", \"p50\": " << JsonNumber(histogram.Quantile(0.5))
       << ", \"p90\": " << JsonNumber(histogram.Quantile(0.9))
       << ", \"p99\": " << JsonNumber(histogram.Quantile(0.99))
       << ", \"p999\": " << JsonNumber(histogram.Quantile(0.999)) << "}";
    sep = ",";
  }
  os << (histograms_.empty() ? "" : "\n  ") << "}\n}\n";
}

}  // namespace jockey
