#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/core/jockey.h"
#include "src/obs/metrics.h"
#include "src/obs/prof/profiler.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

std::string ReadFileOrThrow(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileOrThrow(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  out.close();
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

void Checks::Fail(const std::string& op, const std::string& item, const std::string& message) {
  pass_failed_.insert(op);
  std::string line = "CHECK FAILED [" + workload_ + "] " + item + ": " + message;
  if (std::find(messages_.begin(), messages_.end(), line) != messages_.end()) {
    return;  // one line per distinct failure, however many operations it covers
  }
  std::fprintf(stderr, "%s\n", line.c_str());
  if (messages_.size() < 50) {
    messages_.push_back(std::move(line));
  }
}

void Checks::EndPass() {
  failed_ += static_cast<int64_t>(pass_failed_.size());
  pass_failed_.clear();
}

void Outcomes::Add(double latency_ratio, bool met, double frac_above_oracle) {
  latency_ratios.push_back(latency_ratio);
  misses += met ? 0 : 1;
  oracle_excess_sum += frac_above_oracle;
}

double Layers::Get(const std::string& metric) const {
  auto it = values_.find(metric);
  return it == values_.end() ? 0.0 : it->second;
}

const std::vector<double>& Layers::Samples(const std::string& metric) const {
  static const std::vector<double> kEmpty;
  auto it = samples_.find(metric);
  return it == samples_.end() ? kEmpty : it->second;
}

void Layers::Build(double wall, double cpu, int threads, bool cache_hit, int simulated_runs) {
  Add("sim.builds", 1);
  Add("sim.simulated_runs", simulated_runs);
  if (cache_hit) {
    Add("sim.cache_hits", 1);
    Add("sim.cache_load_s", wall);
  } else {
    Add("sim.build_s", wall);
    Add("sim.build_cpu_s", cpu);
    Add("sim.build_thread_s", wall * threads);
    Sample("sim.build_s", wall);
  }
  Attribute("sim", wall);
}

void Layers::AddCounters(const jockey::MetricsRegistry& metrics) {
  for (const char* name : {"cluster.dispatches", "cluster.completions", "cluster.reexecutions",
                           "cluster.evictions", "control.ticks", "control.prediction_lookups"}) {
    Add(name, static_cast<double>(metrics.CounterValue(name)));
  }
  for (const auto& [name, value] : metrics.Snapshot().counters) {
    if (name.rfind("fault.", 0) == 0) {
      Add("fault.injected", static_cast<double>(value));
    }
  }
}

Span::Span(Layers* layers, const char* layer, const char* metric)
    : layers_(layers), layer_(layer), metric_(metric) {
  if (layers_ != nullptr) {
    start_ = Now();
  }
}

void Span::Close() {
  if (layers_ == nullptr) {
    return;
  }
  double seconds = Now() - start_;
  layers_->Attribute(layer_, seconds);
  if (metric_ != nullptr) {
    layers_->Add(metric_, seconds);
  }
  layers_ = nullptr;
}

namespace {

// One scope of the library profiler: entries and total nanoseconds so far.
struct ScopeTotals {
  int64_t count = 0;
  int64_t ns = 0;
};

ScopeTotals ReadScope(const char* path) {
  ScopeTotals totals;
  for (const jockey::prof::ScopeStat& stat : jockey::prof::Snapshot()) {
    if (stat.path == path) {
      totals.count = stat.count;
      totals.ns = stat.total_ns;
    }
  }
  return totals;
}

}  // namespace

double ProfiledSeconds(const char* scope, const std::function<void()>& call) {
  ScopeTotals before = ReadScope(scope);
  jockey::prof::SetEnabled(true);
  call();
  jockey::prof::SetEnabled(false);
  return static_cast<double>(ReadScope(scope).ns - before.ns) * 1e-9;
}

void TimedTraining(Layers* layers, const std::function<const jockey::Jockey&()>& train) {
  if (layers == nullptr) {
    train();
    return;
  }
  ScopeTotals before = ReadScope("table_build");
  jockey::prof::SetEnabled(true);
  double cpu_start = CpuNow();
  double start = Now();
  const jockey::Jockey& model = train();
  double wall = Now() - start;
  double cpu = CpuNow() - cpu_start;
  jockey::prof::SetEnabled(false);
  ScopeTotals after = ReadScope("table_build");
  if (after.count == before.count) {
    layers->Attribute("scenario", wall);
    return;
  }
  double build = static_cast<double>(after.ns - before.ns) * 1e-9;
  const jockey::CompletionModelBuildStats& stats = model.table_build_stats();
  // The training cluster run is single-threaded, so the CPU beyond its wall time
  // belongs to the build.
  double rest = wall - build;
  layers->Build(build, std::max(0.0, cpu - rest), stats.threads_used, stats.cache_hit,
                stats.simulated_runs);
  layers->Add("cluster.train_run_s", rest);
  layers->Attribute("cluster", rest);
}

}  // namespace perfbench
