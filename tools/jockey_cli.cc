// jockey_cli: the operator-facing command line.
//
// Workflows mirror how an SLO job is onboarded in the paper:
//
//   jockey_cli compile job.scope
//       Compile a SCOPE-like script and print the execution plan (stages, widths,
//       barriers, optimizer notes).
//
//   jockey_cli train job.scope --trace trace.txt [--tokens N]
//       Execute one training run of the compiled job on the simulated shared cluster
//       and save its trace — the "readily available prior execution" Jockey models.
//
//   jockey_cli predict job.scope trace.txt [--deadline MIN]
//       Build the Jockey model from the trace; print the critical path, worst-case
//       completion predictions across allocations, and (with --deadline) the
//       admission verdict and a-priori allocation.
//
//   jockey_cli run job.scope trace.txt --deadline MIN [--seed S]
//       Run the job on the shared cluster under the Jockey control loop against the
//       deadline; print the outcome and the allocation timeline.
//
//   jockey_cli report trace.jsonl
//       Read a --trace-out capture back and render it: event totals, the control
//       loop's decision timeline (progress, prediction, raw/smoothed/granted
//       allocation — the Fig 6 view), kills by reason, cache activity. --chrome-out
//       converts the capture for chrome://tracing; --jsonl-out re-emits it (a
//       byte-identical copy, which the round-trip test checks).
//
//   jockey_cli chaos job.scope trace.txt --deadline MIN [--seeds N] [--classes LIST]
//       Seeded fault-matrix sweep: for each fault class (progress-report dropout /
//       staleness / noise, controller blackouts, token-grant shortfalls, C(p,a)
//       table faults, correlated machine bursts) run the same faulted cluster twice
//       per seed — vanilla controller vs. degraded-mode hardening — and report
//       deadline-miss rates and allocation churn per class, attributing every miss
//       to the fault window that dominated the run; adversarial-spike misses also
//       report how many task dispatches landed in the spike's on-phase. --fault-plan
//       loads a custom JSONL schedule instead of the built-in per-class defaults.
//
//   jockey_cli postmortem trace.jsonl [--deadline MIN] [--json FILE] [--strict]
//       Deadline-miss postmortem of a --trace-out capture (single- or multi-run):
//       reconstruct task-attempt spans, walk the realized critical path, attribute
//       each job's wall-clock into queue / control-lag / degraded / exec / rework /
//       speculation components that sum to its completion time, and report the
//       predictor's signed-error calibration per progress decile. --deadline adds
//       the miss/meet verdict and a top-3 blame ranking; --json writes the
//       byte-deterministic machine-readable form.
//
//   jockey_cli tune job.scope trace.txt --deadline MIN [--seeds N] [--knob-points K]
//       Sweep the hardened controller's four degraded-mode knobs (stale-hold,
//       blind-escalation rate, blackout gap factor, grant-ratio EWMA) across the
//       chaos matrix, one knob varied at a time against the defaults. Candidates
//       are ranked by (deadline misses, non-exec postmortem attribution, churn);
//       a candidate is feasible only if it misses no more than the defaults on
//       *every* class, so the selected setting never trades one fault class for
//       another. --bench-out writes the machine-readable BENCH_tune.json.
//
//   jockey_cli timeline timeseries.jsonl [--json FILE] [--csv FILE]
//       Render a --timeseries-out capture: cluster utilization / spare-pool
//       timelines, per-job allocation and deadline-slack series, and the SLO health
//       transitions (on_track / at_risk / missed). --run/--job narrow the view,
//       --at-risk-only keeps just the jobs whose health ever left on_track; --json
//       and --csv write byte-deterministic machine-readable forms.
//
//   jockey_cli dot job.scope
//       Print the plan as Graphviz.
//
// Every subcommand takes --help plus the shared flags (cli_options.h): --trace-out
// streams the run's trace events as JSONL, --metrics-out dumps the counter/histogram
// registry, --timeseries-out samples the utilization/SLO-health timelines for
// `timeline`, --profile enables the control-plane profiler and writes its call-path
// stats, and --threads/--cache-dir/--no-cache/--cache-max-bytes steer the C(p,a)
// model build and its LRU-pruned on-disk cache.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/cluster/cluster_simulator.h"
#include "src/core/experiment.h"
#include "src/fault/chaos_matrix.h"
#include "src/fault/fault_injector.h"
#include "src/obs/analysis/postmortem.h"
#include "src/obs/async_jsonl.h"
#include "src/obs/jsonl.h"
#include "src/obs/metrics.h"
#include "src/obs/observer.h"
#include "src/obs/prof/profiler.h"
#include "src/obs/timeseries/timeseries.h"
#include "src/scenario/catalog.h"
#include "src/scenario/compiler.h"
#include "src/scenario/orchestrator.h"
#include "src/scenario/spec.h"
#include "src/scope/planner.h"
#include "tools/cli_options.h"

namespace jockey {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  jockey_cli compile <job.scope>\n"
               "  jockey_cli dot <job.scope>\n"
               "  jockey_cli train <job.scope> --trace <out.txt> [--tokens N] [--seed S]\n"
               "  jockey_cli predict <job.scope> <trace.txt> [--deadline MIN]\n"
               "  jockey_cli run <job.scope> <trace.txt> --deadline MIN [--seed S]\n"
               "  jockey_cli run <scenario.yaml|.json> [--json FILE] [--episodes-out FILE]\n"
               "  jockey_cli chaos <job.scope> <trace.txt> --deadline MIN [--seeds N]\n"
               "                   [--classes LIST] [--fault-plan FILE] [--seed S]\n"
               "  jockey_cli chaos --list-classes\n"
               "  jockey_cli tune <job.scope> <trace.txt> --deadline MIN [--seeds N]\n"
               "                   [--classes LIST] [--knob-points K] [--bench-out FILE]\n"
               "  jockey_cli report <trace.jsonl> [--chrome-out FILE] [--jsonl-out FILE]\n"
               "  jockey_cli postmortem <trace.jsonl> [--deadline MIN] [--json FILE]\n"
               "                   [--strict]\n"
               "  jockey_cli timeline <timeseries.jsonl> [--json FILE] [--csv FILE]\n"
               "                   [--run N] [--job N] [--at-risk-only]\n"
               "run '<command> --help' for the command's flags; all commands accept\n"
               "--trace-out FILE, --metrics-out FILE, --timeseries-out FILE,\n"
               "--profile FILE and the model-cache flags.\n");
  return 2;
}

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Owns the sinks selected by --trace-out/--metrics-out/--timeseries-out/--profile
// for one command's lifetime. observer() hands out the two-pointer handle that the
// cluster, controller and model build store; timeseries() the recorder that
// RunExperiment / the cluster attach; Finish() flushes every snapshot and reports
// I/O failures.
class CliObservability {
 public:
  explicit CliObservability(const GlobalOptions& options) : options_(options) {
    if (!options_.trace_out.empty()) {
      trace_stream_ = std::make_unique<std::ofstream>(options_.trace_out);
      if (*trace_stream_) {
        // Async: formatting and file I/O run on the sink's writer thread, off the
        // simulation hot loop. Byte-identical to the synchronous JsonlSink.
        sink_ = std::make_unique<AsyncJsonlSink>(*trace_stream_);
      } else {
        std::fprintf(stderr, "cannot write %s\n", options_.trace_out.c_str());
        failed_ = true;
      }
    }
    if (!options_.metrics_out.empty()) {
      metrics_ = std::make_unique<MetricsRegistry>();
    }
    if (!options_.timeseries_out.empty()) {
      timeseries_ = std::make_unique<TimeSeriesRecorder>();
    }
    if (!options_.profile_out.empty()) {
      prof::Reset();
      prof::SetEnabled(true);
    }
  }

  ~CliObservability() {
    if (!options_.profile_out.empty()) {
      prof::SetEnabled(false);
    }
  }

  bool ok() const { return !failed_; }

  Observer observer() const { return Observer(sink_.get(), metrics_.get()); }
  TimeSeriesRecorder* timeseries() const { return timeseries_.get(); }

  // Returns 0 on success, 1 if any output file could not be written.
  int Finish() {
    if (metrics_ != nullptr) {
      std::ofstream out(options_.metrics_out);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", options_.metrics_out.c_str());
        return 1;
      }
      metrics_->WriteJson(out);
    }
    if (timeseries_ != nullptr) {
      std::ofstream out(options_.timeseries_out);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", options_.timeseries_out.c_str());
        return 1;
      }
      WriteTimeSeriesJsonl(out, timeseries_->Snapshot());
      if (!out) {
        std::fprintf(stderr, "error writing %s\n", options_.timeseries_out.c_str());
        return 1;
      }
    }
    if (!options_.profile_out.empty()) {
      prof::SetEnabled(false);
      std::ofstream out(options_.profile_out);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", options_.profile_out.c_str());
        return 1;
      }
      prof::WriteProfileJson(out);
    }
    if (trace_stream_ != nullptr) {
      if (sink_ != nullptr) {
        sink_->Flush();  // drain the writer thread before checking stream health
      }
      trace_stream_->flush();
      if (!*trace_stream_) {
        std::fprintf(stderr, "error writing %s\n", options_.trace_out.c_str());
        return 1;
      }
    }
    return failed_ ? 1 : 0;
  }

 private:
  GlobalOptions options_;
  std::unique_ptr<std::ofstream> trace_stream_;
  std::unique_ptr<AsyncJsonlSink> sink_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<TimeSeriesRecorder> timeseries_;
  bool failed_ = false;
};

std::optional<PlanResult> CompileFile(const std::string& path) {
  auto source = ReadFile(path);
  if (!source.has_value()) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  PlannerOptions options;
  options.job_name = path;
  PlanResult plan = CompileScopeScript(*source, options);
  if (!plan.ok) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), plan.error.c_str());
    return std::nullopt;
  }
  return plan;
}

int CmdCompile(const std::string& path) {
  auto plan = CompileFile(path);
  if (!plan.has_value()) {
    return 1;
  }
  const JobGraph& g = plan->job.graph;
  std::printf("plan: %d stages, %d tasks, %d barrier stages\n", g.num_stages(), g.num_tasks(),
              g.num_barrier_stages());
  for (int s = 0; s < g.num_stages(); ++s) {
    std::printf("  [%2d] %-24s %5d tasks  cost %.1fs%s", s, g.stage(s).name.c_str(),
                g.stage(s).num_tasks, plan->job.runtime[static_cast<size_t>(s)].median_seconds,
                g.stage(s).IsBarrier() ? "  (barrier)" : "");
    if (!g.stage(s).inputs.empty()) {
      std::printf("  <-");
      for (const auto& e : g.stage(s).inputs) {
        std::printf(" %s", g.stage(e.from).name.c_str());
      }
    }
    std::printf("\n");
  }
  for (const auto& note : plan->notes) {
    std::printf("  note: %s\n", note.c_str());
  }
  return 0;
}

int CmdDot(const std::string& path) {
  auto plan = CompileFile(path);
  if (!plan.has_value()) {
    return 1;
  }
  std::printf("%s", plan->job.graph.ToDot().c_str());
  return 0;
}

int CmdTrain(int argc, char** argv, const std::string& path) {
  std::string trace_path;
  int tokens = 40;
  uint64_t seed = 1;
  GlobalOptions global;
  OptionsParser parser("jockey_cli train <job.scope> --trace <out.txt> [flags]");
  parser.AddString("--trace", "FILE", "where to save the training trace (required)", &trace_path);
  parser.AddInt("--tokens", "N", "guaranteed tokens for the training run", &tokens);
  parser.AddUint64("--seed", "S", "cluster seed for the training run", &seed);
  global.Register(parser);
  if (path == "--help" || path == "-h") {
    parser.PrintHelp(stdout);
    return 0;
  }
  if (!parser.Parse(argc, argv, 3)) {
    return 2;
  }
  if (parser.help_requested()) {
    return 0;
  }
  if (trace_path.empty()) {
    std::fprintf(stderr, "train requires --trace <out.txt>\n");
    return 2;
  }
  auto plan = CompileFile(path);
  if (!plan.has_value()) {
    return 1;
  }
  CliObservability obs(global);
  if (!obs.ok()) {
    return 1;
  }
  ClusterConfig config = DefaultExperimentCluster(seed);
  config.background.overload_rate_per_hour = 0.0;
  ClusterSimulator cluster(config);
  cluster.set_observer(obs.observer());
  if (obs.timeseries() != nullptr) {
    // Training runs have no SLO; the health machine stays inert but the
    // utilization/allocation series still record.
    obs.timeseries()->set_observer(obs.observer());
    obs.timeseries()->BeginRun(/*deadline_seconds=*/-1.0);
    cluster.set_timeseries_recorder(obs.timeseries());
  }
  JobSubmission submission;
  submission.guaranteed_tokens = tokens;
  submission.seed = seed * 7919 + 13;
  int id = cluster.SubmitJob(plan->job, submission);
  cluster.Run();
  const ClusterRunResult& r = cluster.result(id);
  if (!r.finished) {
    std::fprintf(stderr, "training run did not finish\n");
    return 1;
  }
  std::ofstream out(trace_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    return 1;
  }
  r.trace.Save(out);
  std::printf("training run: %.1f min at %d guaranteed tokens, %.1f token-hours of work\n",
              r.CompletionSeconds() / 60.0, tokens, r.trace.TotalWorkSeconds() / 3600.0);
  std::printf("trace saved to %s (%zu task records)\n", trace_path.c_str(), r.trace.tasks.size());
  return obs.Finish();
}

std::optional<Jockey> BuildModel(const PlanResult& plan, const std::string& trace_path,
                                 const GlobalOptions& global, Observer observer) {
  std::ifstream in(trace_path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", trace_path.c_str());
    return std::nullopt;
  }
  RunTrace trace = RunTrace::Load(in);
  if (static_cast<int>(trace.tasks.size()) != plan.job.graph.num_tasks()) {
    std::fprintf(stderr, "trace has %zu tasks but the plan has %d — wrong trace?\n",
                 trace.tasks.size(), plan.job.graph.num_tasks());
    return std::nullopt;
  }
  JockeyConfig config;
  config.model.threads = global.threads;
  if (global.use_cache) {
    config.model.cache_dir = global.cache_dir;
    config.model.cache_max_bytes = global.cache_max_bytes;
  }
  config.model.observer = observer;
  Jockey model(plan.job.graph, trace, config);
  const CompletionModelBuildStats& stats = model.table_build_stats();
  if (stats.cache_hit) {
    std::printf("C(p,a) table: warm cache hit in %s — skipped simulation\n",
                global.cache_dir.c_str());
  } else {
    std::printf("C(p,a) table: simulated %d runs on %d thread%s%s\n", stats.simulated_runs,
                stats.threads_used, stats.threads_used == 1 ? "" : "s",
                global.use_cache ? " (cached for next time)" : "");
  }
  return model;
}

int CmdPredict(int argc, char** argv, const std::string& path, const std::string& trace_path) {
  double deadline_minutes = -1.0;
  GlobalOptions global;
  OptionsParser parser("jockey_cli predict <job.scope> <trace.txt> [flags]");
  parser.AddDouble("--deadline", "MIN", "deadline in minutes for the admission verdict",
                   &deadline_minutes);
  global.Register(parser);
  if (path == "--help" || path == "-h") {
    parser.PrintHelp(stdout);
    return 0;
  }
  if (!parser.Parse(argc, argv, 4)) {
    return 2;
  }
  if (parser.help_requested()) {
    return 0;
  }
  auto plan = CompileFile(path);
  if (!plan.has_value()) {
    return 1;
  }
  CliObservability obs(global);
  if (!obs.ok()) {
    return 1;
  }
  auto model = BuildModel(*plan, trace_path, global, obs.observer());
  if (!model.has_value()) {
    return 1;
  }
  std::printf("critical path (minimum feasible deadline): %.1f min\n",
              model->FeasibleDeadlineSeconds() / 60.0);
  std::printf("worst-case completion predictions:\n");
  for (int tokens : {5, 10, 20, 40, 60, 80, 100}) {
    std::printf("  %3d tokens -> %6.1f min\n", tokens,
                model->PredictCompletionSeconds(tokens) / 60.0);
  }
  if (deadline_minutes > 0.0) {
    double deadline = deadline_minutes * 60.0;
    bool fits = model->WouldFit(deadline, 100);
    std::printf("deadline %.0f min: %s", deadline_minutes, fits ? "FITS" : "does NOT fit");
    if (fits) {
      std::printf(" (a-priori allocation: %d tokens)", model->InitialAllocation(deadline));
    }
    std::printf("\n");
  }
  return obs.Finish();
}

// True for the declarative-scenario form of `run` (workloads as data, spec.h).
bool IsScenarioPath(const std::string& path) {
  for (const char* suffix : {".yaml", ".yml", ".json"}) {
    std::string ext(suffix);
    if (path.size() > ext.size() && path.compare(path.size() - ext.size(), ext.size(), ext) == 0) {
      return true;
    }
  }
  return false;
}

int CmdRunScenario(int argc, char** argv, const std::string& path) {
  std::string json_out;
  std::string episodes_out;
  bool decision_cache = false;
  GlobalOptions global;
  OptionsParser parser("jockey_cli run <scenario.yaml|.json> [flags]");
  parser.AddString("--json", "FILE", "write the scenario summary JSON here", &json_out);
  parser.AddString("--episodes-out", "FILE", "write one JSONL record per episode here",
                   &episodes_out);
  parser.AddFlag("--decision-cache",
                 "memoize control-plane candidate scans (decisions are unchanged; the "
                 "trace gains control_decision_cached marker events)",
                 &decision_cache);
  global.Register(parser);
  if (!parser.Parse(argc, argv, 3)) {
    return 2;
  }
  if (parser.help_requested()) {
    return 0;
  }
  auto text = ReadFile(path);
  if (!text.has_value()) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  ScenarioParseResult parsed = ParseScenarioText(*text);
  if (!parsed.spec.has_value()) {
    std::fprintf(stderr, "%s\n", FormatScenarioIssue(path, *parsed.issue).c_str());
    return 1;
  }
  if (decision_cache) {
    if (!parsed.spec->control.has_value()) {
      parsed.spec->control.emplace();
    }
    parsed.spec->control->decision_cache = true;
  }
  CliObservability obs(global);
  if (!obs.ok()) {
    return 1;
  }
  JobCatalogOptions catalog_options;
  catalog_options.threads = global.threads;
  if (global.use_cache) {
    catalog_options.cache_dir = global.cache_dir;
    catalog_options.cache_max_bytes = global.cache_max_bytes;
  }
  JobCatalog catalog(catalog_options);
  ScenarioCompileOptions compile_options;
  size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) {
    compile_options.base_dir = path.substr(0, slash);
  }
  compile_options.observer = obs.observer();
  compile_options.timeseries = obs.timeseries();
  ScenarioOutcome outcome;
  try {
    CompiledScenario compiled = CompileScenario(*parsed.spec, catalog, compile_options);
    std::printf("scenario %s: %d episode%s\n", parsed.spec->name.c_str(),
                static_cast<int>(compiled.episodes.size()),
                compiled.episodes.size() == 1 ? "" : "s");
    outcome = RunScenario(compiled);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 1;
  }
  PrintScenarioSummary(stdout, outcome);
  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
    WriteScenarioSummaryJson(out, outcome);
  }
  if (!episodes_out.empty()) {
    std::ofstream out(episodes_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", episodes_out.c_str());
      return 1;
    }
    for (const EpisodeOutcome& episode : outcome.episodes) {
      out << WriteEpisodeJsonl(episode) << '\n';
    }
  }
  // SLO misses are the scenario's *data*, not a tool failure: exit 0 so sweeps over
  // scenario directories (CI smoke included) distinguish broken runs from bad SLOs.
  return obs.Finish();
}

int CmdRun(int argc, char** argv, const std::string& path, const std::string& trace_path) {
  double deadline_minutes = -1.0;
  uint64_t seed = 1;
  GlobalOptions global;
  OptionsParser parser("jockey_cli run <job.scope> <trace.txt> --deadline MIN [flags]");
  parser.AddDouble("--deadline", "MIN", "deadline in minutes (required)", &deadline_minutes);
  parser.AddUint64("--seed", "S", "cluster seed for the run", &seed);
  global.Register(parser);
  if (path == "--help" || path == "-h") {
    parser.PrintHelp(stdout);
    return 0;
  }
  if (!parser.Parse(argc, argv, 4)) {
    return 2;
  }
  if (parser.help_requested()) {
    return 0;
  }
  if (deadline_minutes <= 0.0) {
    std::fprintf(stderr, "run requires --deadline <minutes>\n");
    return 2;
  }
  auto plan = CompileFile(path);
  if (!plan.has_value()) {
    return 1;
  }
  CliObservability obs(global);
  if (!obs.ok()) {
    return 1;
  }
  auto model = BuildModel(*plan, trace_path, global, obs.observer());
  if (!model.has_value()) {
    return 1;
  }
  double deadline = deadline_minutes * 60.0;
  auto controller = model->MakeController(deadline);
  controller->set_observer(obs.observer(), /*job_label=*/0);
  ClusterConfig config = DefaultExperimentCluster(seed * 2654435761ULL + 17);
  ClusterSimulator cluster(config);
  cluster.set_observer(obs.observer());
  if (obs.timeseries() != nullptr) {
    obs.timeseries()->set_observer(obs.observer());
    obs.timeseries()->BeginRun(deadline);
    cluster.set_timeseries_recorder(obs.timeseries());
  }
  JobSubmission submission;
  submission.controller = controller.get();
  submission.seed = seed * 104729 + 71;
  int id = cluster.SubmitJob(plan->job, submission);
  cluster.Run();
  const ClusterRunResult& r = cluster.result(id);
  bool met = r.finished && r.CompletionSeconds() <= deadline;
  std::printf("finished in %.1f min vs %.0f min deadline: %s\n", r.CompletionSeconds() / 60.0,
              deadline_minutes, met ? "SLO MET" : "SLO MISSED");
  std::printf("%8s %10s %8s\n", "t[min]", "granted", "running");
  size_t step = std::max<size_t>(1, r.timeline.size() / 20);
  for (size_t i = 0; i < r.timeline.size(); i += step) {
    std::printf("%8.1f %10d %8d\n", r.timeline[i].time / 60.0, r.timeline[i].guaranteed,
                r.timeline[i].running);
  }
  if (obs.Finish() != 0) {
    return 1;
  }
  return met ? 0 : 1;
}

// Allocation churn from the trace: how many times the granted-token level changed
// (AllocationChangeEvents) and how many tokens moved in total (summed |delta|). The
// hardened controller's stale-hold should *reduce* churn under dropout; escalation
// under blindness trades churn for safety, which the table makes visible — and the
// thrash bound below keeps that trade from degenerating into allocation thrash.
struct ChurnStats {
  int changes = 0;
  double moved_tokens = 0.0;
};

ChurnStats AllocationChurn(const std::vector<TraceEvent>& events) {
  ChurnStats churn;
  for (const TraceEvent& event : events) {
    if (const auto* change = std::get_if<AllocationChangeEvent>(&event.payload)) {
      ++churn.changes;
      churn.moved_tokens += std::abs(change->to_tokens - change->from_tokens);
    }
  }
  return churn;
}

// Top postmortem blame component of a missed run, e.g. "degraded 312.5s".
std::string MissBlame(const std::vector<TraceEvent>& events, double deadline) {
  PostmortemOptions options;
  options.deadline_seconds = deadline;
  PostmortemReport report = BuildPostmortem(events, options);
  const BudgetComponent* top = nullptr;
  std::vector<BudgetComponent> components;
  for (const JobPostmortem& job : report.jobs) {
    if (!job.finished) {
      continue;
    }
    components = BudgetComponents(job.budget);
    for (const BudgetComponent& c : components) {
      if (std::string(c.name) == "exec") {
        continue;
      }
      if (top == nullptr || c.seconds > top->seconds) {
        top = &c;
      }
    }
    break;  // chaos runs one job per trace segment
  }
  if (top == nullptr || top->seconds <= 0.0) {
    return "no waiting or rework attributed";
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s %.1fs", top->name, top->seconds);
  return buf;
}

// Join of the adversarial spike's on-phase windows against per-attempt dispatch
// times: of the dispatches inside spike windows that actually bit (appear as
// fault_injected events in the trace), how many landed in the on-phase — the half
// of each period where dispatched work runs slow. A share far above the 50% duty
// cycle is the phase-locked-sampling pathology made visible: the controller keeps
// reacting to the same phase it samples, so its dispatch bursts line up with the
// spike. `injector` must be built from the run's own (per-seed) plan — the phase
// offsets are a pure function of the plan seed, so a fresh injector reproduces the
// run's exact on-phase windows.
struct SpikeDispatchJoin {
  int in_window = 0;  // dispatches inside any spike window that bit
  int on_phase = 0;   // of those, dispatches during the spike's on-phase
};
SpikeDispatchJoin JoinSpikeDispatches(const std::vector<TraceEvent>& events,
                                      const FaultInjector& injector) {
  std::vector<const FaultWindow*> windows;
  for (const TraceEvent& event : events) {
    if (const auto* fault = std::get_if<FaultInjectedEvent>(&event.payload)) {
      if (fault->fault == FaultKind::kAdversarialSpike) {
        windows.push_back(
            &injector.plan().windows()[static_cast<size_t>(fault->window)]);
      }
    }
  }
  SpikeDispatchJoin join;
  if (windows.empty()) {
    return join;
  }
  for (const TraceEvent& event : events) {
    if (std::get_if<TaskDispatchEvent>(&event.payload) == nullptr) {
      continue;
    }
    bool covered = false;
    for (const FaultWindow* w : windows) {
      if (w->Contains(event.time_seconds)) {
        covered = true;
        break;
      }
    }
    if (!covered) {
      continue;
    }
    ++join.in_window;
    if (injector.SpikeBoost(event.time_seconds) > 0.0) {
      ++join.on_phase;
    }
  }
  return join;
}

// Prints the chaos-matrix class names, one per line, in matrix order (the order
// `chaos` sweeps them). Shared by `chaos --list-classes` and the help texts.
void PrintChaosClasses(std::FILE* out) {
  for (const std::string& name : ChaosClassNames()) {
    std::fprintf(out, "%s\n", name.c_str());
  }
}

// One "a, b, c" line of every chaos class, for --help footers.
std::string ChaosClassListLine() {
  std::string line;
  for (const std::string& name : ChaosClassNames()) {
    if (!line.empty()) {
      line += ", ";
    }
    line += name;
  }
  return line;
}

// Resolves `--classes` ("all", empty, or a comma list of registry names) into
// chaos-matrix rows scaled to `deadline`, in list order. An unknown name (an empty
// list item included) prints a diagnostic and returns nullopt (exit 2).
std::optional<std::vector<ChaosClass>> SelectChaosClasses(const std::string& classes,
                                                          double deadline) {
  const int machines = DefaultExperimentCluster(0).num_machines;
  if (classes == "all" || classes.empty()) {
    return BuildChaosMatrix(deadline, machines);
  }
  std::vector<ChaosClass> matrix;
  std::stringstream list(classes);
  std::string token;
  while (std::getline(list, token, ',')) {
    std::optional<FaultPlan> plan = BuildChaosClassPlan(token, deadline, machines);
    if (!plan.has_value()) {
      std::fprintf(stderr, "unknown fault class '%s' (see --help)\n", token.c_str());
      return std::nullopt;
    }
    matrix.push_back({token, std::move(*plan)});
  }
  return matrix;
}

// RunExperiment wants a TrainedJob; wraps an already-built model without copying it
// (the aliasing shared_ptr does not own — `model` must outlive every run).
TrainedJob WrapModel(const PlanResult& plan, const Jockey& model) {
  TrainedJob trained;
  trained.tmpl = std::make_shared<const JobTemplate>(plan.job);
  trained.jockey = std::shared_ptr<const Jockey>(std::shared_ptr<const Jockey>(), &model);
  return trained;
}

int CmdChaos(int argc, char** argv, const std::string& path, const std::string& trace_path) {
  double deadline_minutes = -1.0;
  uint64_t first_seed = 1;
  int seeds = 5;
  std::string classes = "all";
  std::string fault_plan_path;
  bool list_classes = false;
  GlobalOptions global;
  OptionsParser parser("jockey_cli chaos <job.scope> <trace.txt> --deadline MIN [flags]");
  parser.AddDouble("--deadline", "MIN", "deadline in minutes (required)", &deadline_minutes);
  parser.AddInt("--seeds", "N", "runs per fault class and controller", &seeds);
  parser.AddUint64("--seed", "S", "first seed of the sweep", &first_seed);
  parser.AddString("--classes", "LIST",
                   "comma-separated fault classes to sweep (default: all)", &classes);
  parser.AddString("--fault-plan", "FILE",
                   "sweep one custom JSONL fault schedule instead of the built-in matrix",
                   &fault_plan_path);
  parser.AddFlag("--list-classes", "print the fault classes in matrix order and exit",
                 &list_classes);
  global.Register(parser);
  if (path == "--list-classes") {
    PrintChaosClasses(stdout);
    return 0;
  }
  if (path == "--help" || path == "-h") {
    parser.PrintHelp(stdout);
    std::printf("fault classes (matrix order): %s\n", ChaosClassListLine().c_str());
    return 0;
  }
  if (!parser.Parse(argc, argv, 4)) {
    return 2;
  }
  if (parser.help_requested()) {
    std::printf("fault classes (matrix order): %s\n", ChaosClassListLine().c_str());
    return 0;
  }
  if (list_classes) {
    PrintChaosClasses(stdout);
    return 0;
  }
  if (deadline_minutes <= 0.0) {
    std::fprintf(stderr, "chaos requires --deadline <minutes>\n");
    return 2;
  }
  if (seeds < 1) {
    std::fprintf(stderr, "--seeds must be >= 1\n");
    return 2;
  }
  auto plan = CompileFile(path);
  if (!plan.has_value()) {
    return 1;
  }
  CliObservability obs(global);
  if (!obs.ok()) {
    return 1;
  }
  auto model = BuildModel(*plan, trace_path, global, obs.observer());
  if (!model.has_value()) {
    return 1;
  }
  const double deadline = deadline_minutes * 60.0;

  std::vector<ChaosClass> matrix;
  if (!fault_plan_path.empty()) {
    std::ifstream in(fault_plan_path);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", fault_plan_path.c_str());
      return 1;
    }
    std::string error;
    std::optional<FaultPlan> custom = FaultPlan::Load(in, &error);
    if (!custom.has_value()) {
      std::fprintf(stderr, "bad fault plan %s: %s\n", fault_plan_path.c_str(), error.c_str());
      return 1;
    }
    matrix.push_back({"custom", std::move(*custom)});
  } else {
    std::optional<std::vector<ChaosClass>> resolved = SelectChaosClasses(classes, deadline);
    if (!resolved.has_value()) {
      return 2;
    }
    matrix = std::move(*resolved);
  }
  TrainedJob trained = WrapModel(*plan, *model);

  ControlLoopConfig hardened_control = model->config().control;
  hardened_control.enable_degraded_mode = true;

  struct Miss {
    std::string cls;
    bool hardened = false;
    uint64_t seed = 0;
    double completion_seconds = 0.0;
    const FaultWindow* window = nullptr;
    std::string blame;  // top postmortem budget component
    // Spike-vs-dispatch join; in_window stays 0 for classes without spikes.
    SpikeDispatchJoin spikes;
  };
  std::vector<Miss> misses;
  // Attribution injectors must outlive the Miss::window pointers into their plans.
  std::vector<std::unique_ptr<FaultInjector>> attribution;

  std::printf("chaos sweep: %d fault class%s x %d seed%s, deadline %.0f min, "
              "vanilla vs hardened controller\n",
              static_cast<int>(matrix.size()), matrix.size() == 1 ? "" : "es", seeds,
              seeds == 1 ? "" : "s", deadline_minutes);
  std::printf("(input jitter pinned off so differences are the faults' doing)\n\n");
  std::printf("%-17s %5s  %11s %11s  %9s %9s %10s %10s\n", "fault class", "runs",
              "miss(van)", "miss(hard)", "churn(van)", "churn(hard)", "|dtok|(van)",
              "|dtok|(hard)");

  int classes_won = 0;
  int classes_tied = 0;
  bool thrash_ok = true;
  for (const ChaosClass& cls : matrix) {
    attribution.push_back(std::make_unique<FaultInjector>(cls.plan));
    const FaultInjector& attributor = *attribution.back();
    int miss_count[2] = {0, 0};
    double churn_sum[2] = {0.0, 0.0};
    double moved_sum[2] = {0.0, 0.0};
    for (int i = 0; i < seeds; ++i) {
      uint64_t run_seed = first_seed + static_cast<uint64_t>(i);
      FaultPlan run_plan = cls.plan;
      // Per-seed noise stream; the window schedule itself is shared by both arms.
      run_plan.set_seed(ChaosPlanSeed(run_seed));
      auto shared_plan = std::make_shared<const FaultPlan>(std::move(run_plan));
      for (int arm = 0; arm < 2; ++arm) {
        ExperimentOptions options;
        options.deadline_seconds = deadline;
        options.policy = PolicyKind::kJockey;
        options.seed = run_seed;
        options.jitter_input = false;
        options.fault_plan = shared_plan;
        options.observer = obs.observer();
        options.capture_events = true;
        options.timeseries = obs.timeseries();
        if (arm == 1) {
          options.control_override = hardened_control;
        }
        ExperimentResult result = RunExperiment(trained, options);
        ChurnStats churn = AllocationChurn(result.events);
        churn_sum[arm] += churn.changes;
        moved_sum[arm] += churn.moved_tokens;
        if (!result.met_deadline) {
          ++miss_count[arm];
          // The join needs this run's phase offsets, which follow the per-seed
          // plan — the shared attributor carries the class seed and would place
          // the on-phases wrong.
          FaultInjector run_injector(*shared_plan);
          misses.push_back({cls.name, arm == 1, run_seed, result.completion_seconds,
                            attributor.DominantWindow(0.0, result.completion_seconds),
                            MissBlame(result.events, deadline),
                            JoinSpikeDispatches(result.events, run_injector)});
        }
      }
    }
    std::printf("%-17s %5d  %6d/%-4d %6d/%-4d  %9.1f %9.1f %10.1f %10.1f\n",
                cls.name.c_str(), seeds, miss_count[0], seeds, miss_count[1], seeds,
                churn_sum[0] / seeds, churn_sum[1] / seeds, moved_sum[0] / seeds,
                moved_sum[1] / seeds);
    // Thrash bound: hardening must not buy its resilience with allocation thrash.
    // The +2/seed absolute slack keeps classes where vanilla barely reallocates
    // (so the ratio is ill-conditioned) from tripping on a handful of changes.
    if (churn_sum[1] > 1.5 * churn_sum[0] + 2.0 * seeds) {
      thrash_ok = false;
      std::printf("  ^ THRASH: hardened churn %.1f exceeds 1.5x vanilla %.1f (+2/run slack)\n",
                  churn_sum[1] / seeds, churn_sum[0] / seeds);
    }
    if (miss_count[1] < miss_count[0]) {
      ++classes_won;
    } else if (miss_count[1] == miss_count[0]) {
      ++classes_tied;
    }
  }

  if (!misses.empty()) {
    std::printf("\nmiss attribution (every miss -> the dominant fault window):\n");
    for (const Miss& miss : misses) {
      std::printf("  %-8s %-17s seed=%llu  %.1f min vs %.0f min", miss.hardened ? "hardened" : "vanilla",
                  miss.cls.c_str(), static_cast<unsigned long long>(miss.seed),
                  miss.completion_seconds / 60.0, deadline_minutes);
      if (miss.window != nullptr) {
        std::printf("  <- %s [%.1f, %.1f) min", FaultKindName(miss.window->kind),
                    miss.window->start_seconds / 60.0, miss.window->end_seconds / 60.0);
      } else {
        std::printf("  <- no fault window overlapped the run");
      }
      std::printf("  (blame: %s)", miss.blame.c_str());
      if (miss.spikes.in_window > 0) {
        std::printf("  [%d/%d dispatches in spike on-phase, %.0f%% vs 50%% duty]",
                    miss.spikes.on_phase, miss.spikes.in_window,
                    100.0 * miss.spikes.on_phase / miss.spikes.in_window);
      }
      std::printf("\n");
    }
  } else {
    std::printf("\nno deadline misses under any fault class\n");
  }
  std::printf("\nhardened controller: fewer misses on %d, tied on %d, worse on %d of %d class%s\n",
              classes_won, classes_tied,
              static_cast<int>(matrix.size()) - classes_won - classes_tied,
              static_cast<int>(matrix.size()), matrix.size() == 1 ? "" : "es");
  std::printf("thrash bound (hardened churn <= 1.5x vanilla + 2/run): %s\n",
              thrash_ok ? "ok on every class" : "VIOLATED");
  int finish = obs.Finish();
  return thrash_ok ? finish : (finish != 0 ? finish : 1);
}

// Sum of the non-exec postmortem budget components of a captured run: seconds the
// job spent queued, lagging the controller, degraded or redoing work rather than
// executing. The tune objective minimizes this after the miss count — between two
// settings that miss equally, prefer the one that wastes less of the latency budget.
double AttributedNonExecSeconds(const std::vector<TraceEvent>& events) {
  PostmortemReport report = BuildPostmortem(events);
  double total = 0.0;
  for (const JobPostmortem& job : report.jobs) {
    if (!job.finished) {
      continue;
    }
    for (const BudgetComponent& c : BudgetComponents(job.budget)) {
      if (std::string(c.name) != "exec") {
        total += c.seconds;
      }
    }
  }
  return total;
}

// %.6g with a deterministic "never locale-dependent" guarantee, for BENCH JSON.
std::string TuneNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

int CmdTune(int argc, char** argv, const std::string& path, const std::string& trace_path) {
  double deadline_minutes = -1.0;
  uint64_t first_seed = 1;
  int seeds = 3;
  int knob_points = 3;
  double input_scale = 1.0;
  std::string classes = "all";
  std::string bench_out;
  GlobalOptions global;
  OptionsParser parser("jockey_cli tune <job.scope> <trace.txt> --deadline MIN [flags]");
  parser.AddDouble("--deadline", "MIN", "deadline in minutes (required)", &deadline_minutes);
  parser.AddInt("--seeds", "N", "runs per fault class and candidate", &seeds);
  parser.AddUint64("--seed", "S", "first seed of the sweep", &first_seed);
  parser.AddString("--classes", "LIST",
                   "comma-separated fault classes to tune against (default: all)", &classes);
  parser.AddInt("--knob-points", "K",
                "values tried per knob, default included (1 = defaults only)", &knob_points);
  parser.AddDouble("--input-scale", "X",
                   "scale task durations vs training (longer jobs span more ticks)",
                   &input_scale);
  parser.AddString("--bench-out", "FILE",
                   "write the machine-readable ranking here (BENCH_tune.json)", &bench_out);
  global.Register(parser);
  if (path == "--help" || path == "-h") {
    parser.PrintHelp(stdout);
    std::printf("fault classes (matrix order): %s\n", ChaosClassListLine().c_str());
    return 0;
  }
  if (!parser.Parse(argc, argv, 4)) {
    return 2;
  }
  if (parser.help_requested()) {
    std::printf("fault classes (matrix order): %s\n", ChaosClassListLine().c_str());
    return 0;
  }
  if (deadline_minutes <= 0.0) {
    std::fprintf(stderr, "tune requires --deadline <minutes>\n");
    return 2;
  }
  if (seeds < 1) {
    std::fprintf(stderr, "--seeds must be >= 1\n");
    return 2;
  }
  if (knob_points < 1 || knob_points > 5) {
    std::fprintf(stderr, "--knob-points must be in [1, 5]\n");
    return 2;
  }
  if (input_scale <= 0.0) {
    std::fprintf(stderr, "--input-scale must be > 0\n");
    return 2;
  }
  auto plan = CompileFile(path);
  if (!plan.has_value()) {
    return 1;
  }
  CliObservability obs(global);
  if (!obs.ok()) {
    return 1;
  }
  auto model = BuildModel(*plan, trace_path, global, obs.observer());
  if (!model.has_value()) {
    return 1;
  }
  const double deadline = deadline_minutes * 60.0;

  std::optional<std::vector<ChaosClass>> resolved = SelectChaosClasses(classes, deadline);
  if (!resolved.has_value()) {
    return 2;
  }
  const std::vector<ChaosClass>& matrix = *resolved;
  TrainedJob trained = WrapModel(*plan, *model);

  ControlLoopConfig defaults = model->config().control;
  defaults.enable_degraded_mode = true;

  // One knob varied at a time against the hand-tuned defaults: a Fig 12/13-style
  // sensitivity sweep rather than a full grid, so the run count stays linear in
  // knob-points and the ranking stays attributable to a single dial. Ladders
  // alternate below/above the default; --knob-points K takes the first K-1.
  struct Candidate {
    std::string label;
    ControlLoopConfig config;
    std::vector<int> class_misses;
    int misses_total = 0;
    double attributed_seconds = 0.0;
    double churn_changes = 0.0;
    double churn_moved = 0.0;
    bool feasible = true;
  };
  std::vector<Candidate> candidates;
  candidates.push_back({"defaults", defaults, {}, 0, 0.0, 0.0, 0.0, true});
  const double stale_hold_ladder[] = {60.0, 300.0, 90.0, 240.0};
  const double blind_rate_ladder[] = {0.25, 0.75, 0.35, 1.0};
  const double gap_factor_ladder[] = {1.25, 2.5, 1.5, 3.0};
  const double grant_ewma_ladder[] = {0.25, 0.75, 0.35, 1.0};
  auto add = [&](const char* knob, double value, ControlLoopConfig config) {
    char label[64];
    std::snprintf(label, sizeof(label), "%s=%.6g", knob, value);
    candidates.push_back({label, config, {}, 0, 0.0, 0.0, 0.0, true});
  };
  for (int k = 0; k + 1 < knob_points; ++k) {
    ControlLoopConfig c = defaults;
    c.stale_hold_seconds = stale_hold_ladder[k];
    add("stale_hold_seconds", stale_hold_ladder[k], c);
    c = defaults;
    c.blind_escalation_rate = blind_rate_ladder[k];
    add("blind_escalation_rate", blind_rate_ladder[k], c);
    c = defaults;
    c.blackout_gap_factor = gap_factor_ladder[k];
    add("blackout_gap_factor", gap_factor_ladder[k], c);
    c = defaults;
    c.grant_ratio_ewma = grant_ewma_ladder[k];
    add("grant_ratio_ewma", grant_ewma_ladder[k], c);
  }

  std::printf("tune sweep: %d candidate%s x %d fault class%s x %d seed%s, deadline %.0f min "
              "(hardened controller)\n",
              static_cast<int>(candidates.size()), candidates.size() == 1 ? "" : "s",
              static_cast<int>(matrix.size()), matrix.size() == 1 ? "" : "es", seeds,
              seeds == 1 ? "" : "s", deadline_minutes);
  std::printf("objective: (deadline misses, non-exec postmortem seconds, churn), "
              "feasible = no class worse than defaults\n\n");

  for (Candidate& candidate : candidates) {
    candidate.class_misses.assign(matrix.size(), 0);
    for (size_t c = 0; c < matrix.size(); ++c) {
      for (int i = 0; i < seeds; ++i) {
        uint64_t run_seed = first_seed + static_cast<uint64_t>(i);
        FaultPlan run_plan = matrix[c].plan;
        // The same per-seed noise stream the chaos sweep uses, so tune-selected
        // knobs are judged on exactly the faults chaos reports.
        run_plan.set_seed(ChaosPlanSeed(run_seed));
        ExperimentOptions options;
        options.deadline_seconds = deadline;
        options.policy = PolicyKind::kJockey;
        options.seed = run_seed;
        options.jitter_input = false;
        options.input_scale = input_scale;
        options.fault_plan = std::make_shared<const FaultPlan>(std::move(run_plan));
        options.observer = obs.observer();
        options.capture_events = true;
        options.timeseries = obs.timeseries();
        options.control_override = candidate.config;
        ExperimentResult result = RunExperiment(trained, options);
        if (!result.met_deadline) {
          ++candidate.class_misses[c];
          ++candidate.misses_total;
        }
        candidate.attributed_seconds += AttributedNonExecSeconds(result.events);
        ChurnStats churn = AllocationChurn(result.events);
        candidate.churn_changes += churn.changes;
        candidate.churn_moved += churn.moved_tokens;
      }
    }
  }

  // Feasibility: no fault class may get *worse* than the defaults — a knob that
  // fixes adversarial spikes by breaking blackout recovery is not an improvement.
  const Candidate& baseline = candidates.front();
  for (Candidate& candidate : candidates) {
    for (size_t c = 0; c < matrix.size(); ++c) {
      if (candidate.class_misses[c] > baseline.class_misses[c]) {
        candidate.feasible = false;
        break;
      }
    }
  }

  // Rank: feasible first, then lexicographic on the objective. The sort is stable
  // and defaults are listed first, so a candidate must strictly improve something
  // to displace the hand-tuned defaults.
  std::vector<const Candidate*> ranked;
  for (const Candidate& candidate : candidates) {
    ranked.push_back(&candidate);
  }
  std::stable_sort(ranked.begin(), ranked.end(), [](const Candidate* a, const Candidate* b) {
    if (a->feasible != b->feasible) {
      return a->feasible;
    }
    if (a->misses_total != b->misses_total) {
      return a->misses_total < b->misses_total;
    }
    if (a->attributed_seconds != b->attributed_seconds) {
      return a->attributed_seconds < b->attributed_seconds;
    }
    return a->churn_moved < b->churn_moved;
  });

  std::printf("%4s  %-28s %7s %11s %10s %10s  %s\n", "rank", "candidate", "misses",
              "attrib[s]", "churn", "|dtok|", "feasible");
  for (size_t i = 0; i < ranked.size(); ++i) {
    const Candidate& candidate = *ranked[i];
    std::printf("%4d  %-28s %7d %11.1f %10.1f %10.1f  %s\n", static_cast<int>(i + 1),
                candidate.label.c_str(), candidate.misses_total, candidate.attributed_seconds,
                candidate.churn_changes, candidate.churn_moved,
                candidate.feasible ? "yes" : "NO");
  }

  const Candidate& selected = *ranked.front();
  int classes_improved = 0;
  for (size_t c = 0; c < matrix.size(); ++c) {
    if (selected.class_misses[c] < baseline.class_misses[c]) {
      ++classes_improved;
    }
  }
  std::printf("\nselected: %s (stale_hold=%.6g, blind_rate=%.6g, gap_factor=%.6g, "
              "grant_ewma=%.6g)\n",
              selected.label.c_str(), selected.config.stale_hold_seconds,
              selected.config.blind_escalation_rate, selected.config.blackout_gap_factor,
              selected.config.grant_ratio_ewma);
  std::printf("vs defaults: strictly better on %d, no worse on all %d class%s\n",
              classes_improved, static_cast<int>(matrix.size()),
              matrix.size() == 1 ? "" : "es");

  if (!bench_out.empty()) {
    std::ofstream out(bench_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", bench_out.c_str());
      return 1;
    }
    out << "{\"bench\":\"tune\",\"deadline_minutes\":" << TuneNumber(deadline_minutes)
        << ",\"seeds\":" << seeds << ",\"knob_points\":" << knob_points << ",\"classes\":[";
    for (size_t c = 0; c < matrix.size(); ++c) {
      out << (c == 0 ? "" : ",") << "\"" << matrix[c].name << "\"";
    }
    out << "],\"candidates\":[";
    for (size_t i = 0; i < ranked.size(); ++i) {
      const Candidate& candidate = *ranked[i];
      out << (i == 0 ? "" : ",") << "{\"rank\":" << (i + 1) << ",\"label\":\""
          << candidate.label << "\",\"stale_hold_seconds\":"
          << TuneNumber(candidate.config.stale_hold_seconds) << ",\"blind_escalation_rate\":"
          << TuneNumber(candidate.config.blind_escalation_rate) << ",\"blackout_gap_factor\":"
          << TuneNumber(candidate.config.blackout_gap_factor) << ",\"grant_ratio_ewma\":"
          << TuneNumber(candidate.config.grant_ratio_ewma) << ",\"misses\":"
          << candidate.misses_total << ",\"attributed_seconds\":"
          << TuneNumber(candidate.attributed_seconds) << ",\"churn_changes\":"
          << TuneNumber(candidate.churn_changes) << ",\"churn_moved_tokens\":"
          << TuneNumber(candidate.churn_moved) << ",\"feasible\":"
          << (candidate.feasible ? "true" : "false") << ",\"class_misses\":[";
      for (size_t c = 0; c < candidate.class_misses.size(); ++c) {
        out << (c == 0 ? "" : ",") << candidate.class_misses[c];
      }
      out << "]}";
    }
    out << "],\"selected\":\"" << selected.label
        << "\",\"classes_improved\":" << classes_improved << "}\n";
    if (!out) {
      std::fprintf(stderr, "error writing %s\n", bench_out.c_str());
      return 1;
    }
    std::printf("ranking written to %s\n", bench_out.c_str());
  }
  return obs.Finish();
}

// Events of a job whose job_submit was lost (a skipped malformed line, a cut head)
// are missing from every per-job view: say how many, and fail. Returns the exit code.
int FailOnUnsubmitted(int unsubmitted_events) {
  if (unsubmitted_events > 0) {
    std::fprintf(stderr, "error: events naming a job with no job_submit in their run: %d\n",
                 unsubmitted_events);
    return 1;
  }
  return 0;
}

int CmdReport(int argc, char** argv, const std::string& trace_path) {
  std::string chrome_out;
  std::string jsonl_out;
  int timeline_rows = 20;
  OptionsParser parser("jockey_cli report <trace.jsonl> [flags]");
  parser.AddString("--chrome-out", "FILE", "convert the trace for chrome://tracing",
                   &chrome_out);
  parser.AddString("--jsonl-out", "FILE", "re-emit the parsed trace as JSONL (round-trip copy)",
                   &jsonl_out);
  parser.AddInt("--timeline-rows", "N", "rows to print per job in the decision timeline",
                &timeline_rows);
  if (trace_path == "--help" || trace_path == "-h") {
    parser.PrintHelp(stdout);
    return 0;
  }
  if (!parser.Parse(argc, argv, 3)) {
    return 2;
  }
  if (parser.help_requested()) {
    return 0;
  }
  std::ifstream in(trace_path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", trace_path.c_str());
    return 1;
  }
  TraceReadResult trace = ReadJsonlTrace(in);
  if (trace.malformed_lines > 0) {
    std::fprintf(stderr, "warning: %d malformed line%s skipped\n", trace.malformed_lines,
                 trace.malformed_lines == 1 ? "" : "s");
  }
  std::printf("%zu events\n", trace.events.size());

  // Event totals, in the enum's (stable) order.
  std::map<int, int64_t> kind_counts;
  for (const TraceEvent& event : trace.events) {
    ++kind_counts[static_cast<int>(event.kind())];
  }
  for (const auto& [kind, count] : kind_counts) {
    std::printf("  %-20s %8lld\n", EventKindName(static_cast<EventKind>(kind)),
                static_cast<long long>(count));
  }

  // The control-decision timeline: what the loop saw and decided, tick by tick
  // (the trace-level reconstruction of Fig 6's allocation-over-time plots).
  std::map<int, std::vector<const ControlTickEvent*>> ticks_by_job;
  std::map<int, double> finish_by_job;
  for (const TraceEvent& event : trace.events) {
    if (const auto* tick = std::get_if<ControlTickEvent>(&event.payload)) {
      ticks_by_job[tick->job].push_back(tick);
    } else if (const auto* fin = std::get_if<JobFinishEvent>(&event.payload)) {
      finish_by_job[fin->job] = fin->completion_seconds;
    }
  }
  for (const auto& [job, ticks] : ticks_by_job) {
    std::printf("job %d: %zu control ticks", job, ticks.size());
    auto fin = finish_by_job.find(job);
    if (fin != finish_by_job.end()) {
      std::printf(", finished in %.1f min", fin->second / 60.0);
    }
    std::printf("\n");
    std::printf("  %8s %9s %10s %6s %9s %8s\n", "t[min]", "progress", "pred[min]", "raw",
                "smoothed", "granted");
    size_t rows = timeline_rows > 0 ? static_cast<size_t>(timeline_rows) : ticks.size();
    size_t step = std::max<size_t>(1, ticks.size() / rows);
    for (size_t i = 0; i < ticks.size(); i += step) {
      const ControlTickEvent& t = *ticks[i];
      std::printf("  %8.1f %9.3f %10.1f %6.0f %9.1f %8d\n", t.elapsed_seconds / 60.0, t.progress,
                  t.predicted_remaining_seconds / 60.0, t.raw_allocation, t.smoothed_allocation,
                  t.granted_tokens);
    }
  }

  // Scheduler disruptions: kills by reason and speculation outcomes.
  int64_t kills[3] = {0, 0, 0};
  int64_t reexecutions = 0;
  for (const TraceEvent& event : trace.events) {
    if (const auto* killed = std::get_if<TaskKilledEvent>(&event.payload)) {
      ++kills[static_cast<int>(killed->reason)];
      if (killed->requeued) {
        ++reexecutions;
      }
    }
  }
  if (kills[0] + kills[1] + kills[2] > 0) {
    std::printf("kills: %lld spare evictions, %lld task failures, %lld machine-failure kills "
                "(%lld re-executions)\n",
                static_cast<long long>(kills[0]), static_cast<long long>(kills[1]),
                static_cast<long long>(kills[2]), static_cast<long long>(reexecutions));
  }

  // Task-attempt durations with *exact* quantiles (the histogram retains raw
  // samples), reconstructed from the dispatch/complete/kill spans.
  int unsubmitted_events = 0;
  {
    PostmortemReport spans = BuildPostmortem(trace.events);
    unsubmitted_events = spans.unsubmitted_events;
    Histogram durations(DefaultLatencySecondsEdges());
    for (const JobPostmortem& job : spans.jobs) {
      for (const TaskAttemptSpan& span : job.spans) {
        durations.Observe(span.end_seconds - span.dispatch_seconds);
      }
    }
    if (durations.total_count() > 0) {
      std::printf("task attempts: %lld, duration p50 %.2fs  p90 %.2fs  p99 %.2fs  p99.9 %.2fs\n",
                  static_cast<long long>(durations.total_count()), durations.Quantile(0.5),
                  durations.Quantile(0.9), durations.Quantile(0.99), durations.Quantile(0.999));
    }
  }

  // Table-cache activity (the offline model build's side of the trace).
  std::map<int, int64_t> cache_codes;
  for (const TraceEvent& event : trace.events) {
    if (const auto* lookup = std::get_if<TableCacheLookupEvent>(&event.payload)) {
      ++cache_codes[static_cast<int>(lookup->code)];
    }
  }
  if (!cache_codes.empty()) {
    std::printf("table cache lookups:");
    for (const auto& [code, count] : cache_codes) {
      std::printf(" %s=%lld", CacheCodeName(static_cast<CacheCode>(code)),
                  static_cast<long long>(count));
    }
    std::printf("\n");
  }

  if (!chrome_out.empty()) {
    std::ofstream out(chrome_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", chrome_out.c_str());
      return 1;
    }
    WriteChromeTrace(out, trace.events);
    std::printf("chrome trace written to %s (open in chrome://tracing)\n", chrome_out.c_str());
  }
  if (!jsonl_out.empty()) {
    std::ofstream out(jsonl_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", jsonl_out.c_str());
      return 1;
    }
    for (const TraceEvent& event : trace.events) {
      out << ToJsonLine(event) << '\n';
    }
    std::printf("trace re-emitted to %s\n", jsonl_out.c_str());
  }
  return FailOnUnsubmitted(unsubmitted_events);
}

int CmdTimeline(int argc, char** argv, const std::string& series_path) {
  std::string json_out;
  std::string csv_out;
  int run = -1;
  int job = -1;
  bool cluster_only = false;
  bool jobs_only = false;
  bool at_risk_only = false;
  OptionsParser parser("jockey_cli timeline <timeseries.jsonl> [flags]");
  parser.AddString("--json", "FILE", "write the nested timeline document here (deterministic)",
                   &json_out);
  parser.AddString("--csv", "FILE", "write the long-form run,series,job,t,value CSV here",
                   &csv_out);
  parser.AddInt("--run", "N", "only this run index (multi-episode captures)", &run);
  parser.AddInt("--job", "N", "only this job id", &job);
  parser.AddFlag("--cluster-only", "only the cluster-wide series", &cluster_only);
  parser.AddFlag("--jobs-only", "only the per-job series", &jobs_only);
  parser.AddFlag("--at-risk-only",
                 "only jobs whose SLO health ever left on_track", &at_risk_only);
  parser.AddCheck([&json_out] { return ValidateOutputPath("--json", json_out); });
  parser.AddCheck([&csv_out] { return ValidateOutputPath("--csv", csv_out); });
  if (series_path == "--help" || series_path == "-h") {
    parser.PrintHelp(stdout);
    return 0;
  }
  if (!parser.Parse(argc, argv, 3)) {
    return 2;
  }
  if (parser.help_requested()) {
    return 0;
  }
  if (cluster_only && jobs_only) {
    std::fprintf(stderr, "--cluster-only and --jobs-only exclude each other\n");
    return 2;
  }
  std::ifstream in(series_path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", series_path.c_str());
    return 1;
  }
  TimeSeriesReadResult read = ReadTimeSeriesJsonl(in);
  if (!read.series.has_value()) {
    std::fprintf(stderr, "%s:%d: %s\n", series_path.c_str(), read.line, read.message.c_str());
    return 1;
  }
  TimelineFilter filter;
  filter.run = run;
  filter.job = job;
  filter.cluster_only = cluster_only;
  filter.jobs_only = jobs_only;
  filter.at_risk_only = at_risk_only;
  TimeSeries view = FilterTimeSeries(*read.series, filter);
  std::ostringstream text;
  PrintTimeline(text, view);
  std::fputs(text.str().c_str(), stdout);
  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
    WriteTimelineJson(out, view);
    // stderr, like postmortem --json: stdout stays byte-identical either way.
    std::fprintf(stderr, "timeline JSON written to %s\n", json_out.c_str());
  }
  if (!csv_out.empty()) {
    std::ofstream out(csv_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", csv_out.c_str());
      return 1;
    }
    WriteTimelineCsv(out, view);
    std::fprintf(stderr, "timeline CSV written to %s\n", csv_out.c_str());
  }
  return 0;
}

int CmdPostmortem(int argc, char** argv, const std::string& trace_path) {
  double deadline_minutes = -1.0;
  std::string json_out;
  bool strict = false;
  OptionsParser parser("jockey_cli postmortem <trace.jsonl> [flags]");
  parser.AddDouble("--deadline", "MIN",
                   "deadline in minutes; adds the per-job miss/meet verdict",
                   &deadline_minutes);
  parser.AddString("--json", "FILE", "write the machine-readable postmortem here",
                   &json_out);
  parser.AddFlag("--strict", "fail on the first malformed trace line", &strict);
  if (trace_path == "--help" || trace_path == "-h") {
    parser.PrintHelp(stdout);
    return 0;
  }
  if (!parser.Parse(argc, argv, 3)) {
    return 2;
  }
  if (parser.help_requested()) {
    return 0;
  }
  std::ifstream in(trace_path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", trace_path.c_str());
    return 1;
  }
  TraceReadResult trace = ReadJsonlTrace(in, strict);
  if (strict && trace.first_issue.has_value()) {
    const TraceParseIssue& issue = *trace.first_issue;
    std::fprintf(stderr, "%s:%d: %s%s%s\n", trace_path.c_str(), issue.line_number,
                 issue.message.c_str(), issue.field.empty() ? "" : " at field ",
                 issue.field.c_str());
    return 1;
  }
  if (trace.malformed_lines > 0) {
    std::fprintf(stderr, "warning: %d malformed line%s skipped\n", trace.malformed_lines,
                 trace.malformed_lines == 1 ? "" : "s");
  }
  PostmortemOptions options;
  if (deadline_minutes > 0.0) {
    options.deadline_seconds = deadline_minutes * 60.0;
  }
  PostmortemReport report = BuildPostmortem(trace.events, options);
  std::ostringstream table;
  PrintPostmortem(table, report);
  std::fputs(table.str().c_str(), stdout);
  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
    WritePostmortemJson(out, report);
    // stderr, not stdout: the report text must be byte-identical regardless of
    // where (or whether) the JSON copy was written.
    std::fprintf(stderr, "postmortem JSON written to %s\n", json_out.c_str());
  }
  return FailOnUnsubmitted(report.unsubmitted_events);
}

int Main(int argc, char** argv) {
  if (argc < 3) {
    return Usage();
  }
  std::string command = argv[1];
  if (command == "compile") {
    return CmdCompile(argv[2]);
  }
  if (command == "dot") {
    return CmdDot(argv[2]);
  }
  if (command == "train") {
    return CmdTrain(argc, argv, argv[2]);
  }
  bool help_only = std::string(argv[2]) == "--help" || std::string(argv[2]) == "-h";
  if (command == "predict") {
    if (argc < 4 && !help_only) {
      return Usage();
    }
    return CmdPredict(argc, argv, argv[2], argc >= 4 ? argv[3] : "");
  }
  if (command == "run") {
    if (IsScenarioPath(argv[2])) {
      return CmdRunScenario(argc, argv, argv[2]);
    }
    if (argc < 4 && !help_only) {
      return Usage();
    }
    return CmdRun(argc, argv, argv[2], argc >= 4 ? argv[3] : "");
  }
  if (command == "chaos") {
    bool list_only = std::string(argv[2]) == "--list-classes";
    if (argc < 4 && !help_only && !list_only) {
      return Usage();
    }
    return CmdChaos(argc, argv, argv[2], argc >= 4 ? argv[3] : "");
  }
  if (command == "tune") {
    if (argc < 4 && !help_only) {
      return Usage();
    }
    return CmdTune(argc, argv, argv[2], argc >= 4 ? argv[3] : "");
  }
  if (command == "report") {
    return CmdReport(argc, argv, argv[2]);
  }
  if (command == "postmortem") {
    return CmdPostmortem(argc, argv, argv[2]);
  }
  if (command == "timeline") {
    return CmdTimeline(argc, argv, argv[2]);
  }
  return Usage();
}

}  // namespace
}  // namespace jockey

int main(int argc, char** argv) { return jockey::Main(argc, argv); }
