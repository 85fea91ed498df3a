// perfbench_driver: runs one benchmark workload in-process and prints a JSON report.
//
//   perfbench_driver --workload scenarios_cold|fleet|traced_warm --inputs DIR
//                    --work DIR --seconds N [--trace 0|1]
//                    [--inject truncate_trace|fleet_cap|arbiter_mismatch|arbiter_overadmit]
//
// A run sets up at least three times and for at least two seconds (set-up time is
// their median), then repeats untraced passes over the generated inputs for N
// seconds, at least three (run and CPU time are per-pass medians). N = 0 is a quick
// check: one set-up and one pass. With --trace 1 it then adds one per-layer run — a set-up plus a
// pass with per-call timers and attached metrics registries — and reports each
// layer's time, their unattributed remainder, and the tracing overhead against the
// untraced passes. perfbench/run.py generates the inputs and formats the report.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/obs/json_format.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::string inputs;
  std::string work;
  double seconds = 10.0;
  bool trace = false;
  std::string inject;
};

// One named metric of the report.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

int Usage(const char* message) {
  std::fprintf(stderr, "perfbench_driver: %s\n", message);
  return 2;
}

// The repo's modules that own time in some workload.
const char* const kLayers[] = {"scenario", "workload", "sim", "cluster", "core", "obs"};

// Every per-layer metric, in report order. Each workload reports all of them; a
// layer the workload does not exercise reads 0.
void LayerMetrics(const Layers& layers, double layer_wall, double layer_pass, double run_median,
                  std::vector<Metric>& out) {
  auto get = [&](const char* name) { return layers.Get(name); };
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  auto ms = [&](const char* samples, double q) {
    return Quantile(layers.Samples(samples), q) * 1e3;
  };
  auto us = [&](const char* samples, double q) {
    return Quantile(layers.Samples(samples), q) * 1e6;
  };

  for (const char* name : {"scenario.parse_s", "scenario.compile_s", "workload.generate_s"}) {
    out.push_back({name, get(name), "s"});
  }
  out.push_back({"sim.builds", get("sim.builds"), "count"});
  out.push_back({"sim.build_s", get("sim.build_s"), "s"});
  out.push_back({"sim.build_ms_p50", ms("sim.build_s", 0.5), "ms"});
  out.push_back({"sim.build_cpu_s", get("sim.build_cpu_s"), "s"});
  // Base: build wall time multiplied by the build threads.
  out.push_back({"sim.build_parallel_eff",
                 ratio(get("sim.build_cpu_s"), get("sim.build_thread_s")), "ratio"});
  out.push_back({"sim.simulated_runs", get("sim.simulated_runs"), "count"});
  out.push_back({"sim.cache_load_s", get("sim.cache_load_s"), "s"});
  out.push_back({"sim.cache_hit_ratio", ratio(get("sim.cache_hits"), get("sim.builds")),
                 "ratio"});

  out.push_back({"cluster.train_run_s", get("cluster.train_run_s"), "s"});
  out.push_back({"cluster.episode_s", get("cluster.episode_s"), "s"});
  out.push_back({"cluster.cell_run_s", get("cluster.cell_run_s"), "s"});
  out.push_back({"cluster.dispatch_self_s", get("cluster.dispatch_self_s"), "s"});
  for (const char* name : {"cluster.dispatches", "cluster.completions", "cluster.reexecutions",
                           "cluster.evictions"}) {
    out.push_back({name, get(name), "count"});
  }
  out.push_back({"cluster.useful_dispatch_ratio",
                 ratio(get("cluster.completions"), get("cluster.dispatches")), "ratio"});
  // Cluster time per dispatch: cell time less control ticks (fleet), or untraced
  // RunExperiment time (scenario workloads, where ticks run inside the episode).
  double cluster_seconds =
      get("cluster.dispatch_self_s") > 0.0 ? get("cluster.dispatch_self_s") : get("cluster.episode_s");
  out.push_back({"cluster.ns_per_dispatch", ratio(cluster_seconds, get("cluster.dispatches")) * 1e9,
                 "ns"});

  out.push_back({"core.ticks", get("control.ticks"), "count"});
  out.push_back({"core.tick_s", get("core.tick_s"), "s"});
  out.push_back({"core.tick_us_p50", us("core.tick_s", 0.5), "us"});
  out.push_back({"core.tick_us_p99", us("core.tick_s", 0.99), "us"});
  out.push_back({"core.arbiter_ticks", get("core.arbiter_ticks"), "count"});
  out.push_back({"core.arbiter_uncached_tick_s", get("core.arbiter_uncached_tick_s"), "s"});
  out.push_back({"core.arbiter_cached_tick_s", get("core.arbiter_cached_tick_s"), "s"});
  out.push_back({"core.arbiter_tick_us_p99", us("core.arbiter_tick_s", 0.99), "us"});
  out.push_back({"core.prediction_lookups", get("control.prediction_lookups"), "count"});

  out.push_back({"fault.injected", get("fault.injected"), "count"});

  for (const char* name : {"obs.run_traced_s", "obs.sink_close_s", "obs.export_s",
                           "obs.trace_read_s", "obs.postmortem_s", "obs.timeline_s"}) {
    out.push_back({name, get(name), "s"});
  }
  out.push_back({"obs.trace_events", get("obs.trace_events"), "count"});
  out.push_back({"obs.trace_bytes", get("obs.trace_bytes"), "bytes"});
  out.push_back({"obs.timeseries_bytes", get("obs.timeseries_bytes"), "bytes"});

  out.push_back({"core.decision_cache_hit_ratio",
                 ratio(get("core.cache_hits"), get("core.cache_hits") + get("core.cache_misses")),
                 "ratio"});
  // Base: the arbiter's ticks with the decision cache on.
  out.push_back({"core.arbiter_cache_speedup",
                 ratio(get("core.arbiter_uncached_tick_s"), get("core.arbiter_cached_tick_s")),
                 "ratio"});
  // Base: the same episodes run untraced in the per-layer set-up (traced_warm only).
  out.push_back({"obs.trace_slowdown",
                 get("obs.run_traced_s") > 0.0
                     ? ratio(get("obs.run_traced_s"), get("cluster.episode_s"))
                     : 0.0,
                 "ratio"});
  out.push_back({"scenario.episodes", get("scenario.episodes"), "count"});

  double attributed = 0.0;
  for (const char* layer : kLayers) {
    auto it = layers.self().find(layer);
    double seconds = it == layers.self().end() ? 0.0 : it->second;
    attributed += seconds;
    out.push_back({std::string(layer) + ".self_s", seconds, "s"});
    out.push_back({std::string(layer) + ".share", ratio(seconds, layer_wall), "ratio"});
  }
  out.push_back({"bench.layer_wall_s", layer_wall, "s"});
  out.push_back({"bench.unattributed_s", layer_wall - attributed, "s"});
  // Base: the median untraced pass of this run (run_s).
  out.push_back({"bench.trace_overhead_ratio", ratio(layer_pass, run_median), "ratio"});
}

// FNV-1a, hex: a short fingerprint of the outcomes for comparing commits by eye.
std::string Fingerprint(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    hash = (hash ^ c) * 1099511628211ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(hash));
  return hex;
}

void PrintSamples(std::ostringstream& os, const char* key, const std::vector<double>& values) {
  os << ",\"" << key << "\":[";
  for (size_t i = 0; i < values.size(); ++i) {
    os << (i == 0 ? "" : ",") << jockey::JsonNumber(values[i]);
  }
  os << "]";
}

void PrintReport(const Args& args, const Checks& checks, const std::vector<double>& setup_seconds,
                 const std::vector<double>& run_seconds, const std::string& digest,
                 const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"workload\":" << jockey::JsonString(args.workload)
     << ",\"attempted\":" << checks.attempted() << ",\"failed\":" << checks.failed()
     << ",\"setups\":" << setup_seconds.size() << ",\"passes\":" << run_seconds.size();
  PrintSamples(os, "pass_seconds", run_seconds);
  os << ",\"outcome_digest\":" << jockey::JsonString(Fingerprint(digest)) << ",\"failures\":[";
  for (size_t i = 0; i < checks.messages().size(); ++i) {
    os << (i == 0 ? "" : ",") << jockey::JsonString(checks.messages()[i]);
  }
  os << "],\"metrics\":[";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    os << (i == 0 ? "" : ",") << "{\"name\":" << jockey::JsonString(metrics[i].name)
       << ",\"value\":" << value << ",\"unit\":" << jockey::JsonString(metrics[i].unit) << "}";
  }
  os << "]}\n";
  std::fputs(os.str().c_str(), stdout);
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--inputs") {
      args.inputs = value;
    } else if (flag == "--work") {
      args.work = value;
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--inject") {
      args.inject = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.inputs.empty() || args.work.empty() || args.seconds < 0.0) {
    return Usage("--inputs and --work are required; --seconds must be >= 0");
  }
  WorkloadArgs workload_args{args.inputs, args.work, args.inject};
  std::unique_ptr<Workload> workload;
  if (args.workload == "scenarios_cold" || args.workload == "traced_warm") {
    workload = MakeScenarioWorkload(workload_args, args.workload == "traced_warm");
  } else if (args.workload == "fleet") {
    workload = MakeFleetWorkload(workload_args);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  std::filesystem::create_directories(args.work);

  Checks checks(args.workload);
  // A cheap set-up repeats until it has run for two seconds, so its median rests on
  // enough samples to stay put between runs.
  const bool quick = args.seconds == 0.0;
  const int min_setups = quick ? 1 : 3;
  const int min_passes = quick ? 1 : 3;
  const double min_setup_seconds = quick ? 0.0 : 2.0;
  constexpr int kMaxSetups = 1000;
  std::vector<double> setup_seconds;
  double setup_total = 0.0;
  while (static_cast<int>(setup_seconds.size()) < min_setups ||
         (setup_total < min_setup_seconds &&
          static_cast<int>(setup_seconds.size()) < kMaxSetups)) {
    double start = Now();
    workload->Setup(nullptr);
    setup_seconds.push_back(Now() - start);
    setup_total += setup_seconds.back();
  }

  std::vector<double> run_seconds;
  std::vector<double> cpu_seconds;
  Outcomes first;
  double timed = 0.0;
  while (timed < args.seconds || static_cast<int>(run_seconds.size()) < min_passes) {
    Outcomes outcomes;
    double cpu_start = CpuNow();
    double start = Now();
    workload->Pass(nullptr, outcomes, checks);
    run_seconds.push_back(Now() - start);
    cpu_seconds.push_back(CpuNow() - cpu_start);
    timed += run_seconds.back();
    if (run_seconds.size() == 1) {
      first = std::move(outcomes);
    } else if (outcomes.digest != first.digest) {
      checks.Fail("pass" + std::to_string(run_seconds.size()), "determinism",
                  "pass " + std::to_string(run_seconds.size()) +
                      " produced different outcomes than pass 1");
      checks.EndPass();
    }
  }
  double run_median = Median(run_seconds);

  std::vector<Metric> metrics = {
      {"setup_s", Median(setup_seconds), "s"},
      {"run_s", run_median, "s"},
      {"cpu_s", Median(cpu_seconds), "s"},
  };
  if (args.trace) {
    Layers layers;
    Outcomes outcomes;
    double start = Now();
    workload->Setup(&layers);
    double pass_start = Now();
    workload->Pass(&layers, outcomes, checks);
    double end = Now();
    if (outcomes.digest != first.digest) {
      checks.Fail("per-layer", "determinism",
                  "the per-layer run produced different outcomes than the untraced passes");
      checks.EndPass();
    }
    LayerMetrics(layers, end - start, end - pass_start, run_median, metrics);
  }
  metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  // The simulated outcomes of the first pass; every later pass matched them.
  double jobs = static_cast<double>(first.latency_ratios.size());
  metrics.push_back({"miss_rate", jobs > 0 ? first.misses / jobs : 0.0, "ratio"});
  metrics.push_back({"latency_ratio_p50", Quantile(first.latency_ratios, 0.5), "ratio"});
  metrics.push_back({"latency_ratio_p90", Quantile(first.latency_ratios, 0.9), "ratio"});
  metrics.push_back({"oracle_excess", jobs > 0 ? first.oracle_excess_sum / jobs : 0.0, "ratio"});
  metrics.push_back({"failed_ratio",
                     checks.attempted() > 0
                         ? static_cast<double>(checks.failed()) / static_cast<double>(checks.attempted())
                         : 0.0,
                     "ratio"});
  PrintReport(args, checks, setup_seconds, run_seconds, first.digest, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
