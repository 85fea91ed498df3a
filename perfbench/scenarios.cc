// The scenario workloads: the checked-in scenarios/*.yaml, reseeded by the
// benchmark's generator, run the way `jockey_cli run` runs them.
//
//   scenarios_cold  `run --no-cache --threads 2`: parse, a fresh JobCatalog with the
//                   table cache off and 2 build threads, CompileScenario,
//                   RunScenario, nothing attached. The C(p, a) build dominates.
//   traced_warm     `run --trace-out --timeseries-out --metrics-out` against a table
//                   cache filled during set-up, then `postmortem --strict --json`
//                   and `timeline` over what the run wrote. Observability dominates.

#include <algorithm>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/obs/analysis/postmortem.h"
#include "src/obs/async_jsonl.h"
#include "src/obs/jsonl.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries/timeseries.h"
#include "src/scenario/catalog.h"
#include "src/scenario/compiler.h"
#include "src/scenario/orchestrator.h"
#include "src/scenario/spec.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace jockey;

// Build threads of the C(p, a) fan-out: two keeps the timed part steady on a small
// shared host and still shows build scaling.
constexpr int kBuildThreads = 2;

struct ScenarioInput {
  std::string file;  // input file name, e.g. "s0_policy_matrix.yaml"
  std::string text;
};

// Counts the events a run emits on their way to the real sink, so the strict
// re-read can be held to the same count.
class CountingSink final : public ObserverSink {
 public:
  explicit CountingSink(ObserverSink* inner) : inner_(inner) {}
  void OnEvent(const TraceEvent& event) override {
    ++count_;
    inner_->OnEvent(event);
  }
  int64_t count() const { return count_; }

 private:
  ObserverSink* inner_;
  int64_t count_ = 0;
};

std::string SummaryJson(const ScenarioOutcome& outcome) {
  std::ostringstream os;
  WriteScenarioSummaryJson(os, outcome);
  return os.str();
}

std::string OpName(const ScenarioInput& input, size_t episode) {
  return input.file + "#" + std::to_string(episode);
}

// Fails every episode of a scenario: used by checks that cover the whole file.
void FailScenario(Checks& checks, const ScenarioInput& input, size_t episodes,
                  const std::string& item, const std::string& message) {
  for (size_t i = 0; i < std::max<size_t>(episodes, 1); ++i) {
    checks.Fail(OpName(input, i), input.file + ": " + item, message);
  }
}

// What one traced scenario writes. Removed once it has been read back and checked,
// so a run leaves no trace files behind for the kernel to write back mid-pass.
struct OutputFiles {
  std::vector<std::string> paths;
  ~OutputFiles() {
    std::error_code ignored;
    for (const std::string& path : paths) {
      fs::remove(path, ignored);
    }
  }
};

class ScenarioWorkload final : public Workload {
 public:
  ScenarioWorkload(WorkloadArgs args, bool traced_warm)
      : args_(std::move(args)), traced_warm_(traced_warm) {
    cache_dir_ = args_.work_dir + "/table_cache";
    out_dir_ = args_.work_dir + "/out";
  }

  void Setup(Layers* layers) override {
    inputs_.clear();
    specs_.clear();
    reference_.clear();
    untraced_base_.clear();
    std::vector<std::string> files;
    for (const fs::directory_entry& entry : fs::directory_iterator(args_.inputs_dir)) {
      files.push_back(entry.path().filename().string());
    }
    std::sort(files.begin(), files.end());
    for (const std::string& file : files) {
      ScenarioInput input{file, ReadFileOrThrow(args_.inputs_dir + "/" + file)};
      specs_.push_back(Parse(layers, input));
      inputs_.push_back(std::move(input));
    }
    if (inputs_.empty()) {
      throw std::runtime_error("no scenario inputs in " + args_.inputs_dir);
    }
    if (!traced_warm_) {
      // Warm-up: the first scenario once, so one-time process costs (heap growth,
      // first thread starts, page faults) fall outside the timed passes, and set-up
      // time is steady work rather than a sub-millisecond parse.
      JobCatalog catalog(CatalogOptions(/*cached=*/false));
      CompiledScenario compiled = Compile(layers, specs_[0], catalog, ScenarioCompileOptions());
      double seconds = 0.0;
      Run(layers, compiled, &seconds);
      if (layers != nullptr) {
        layers->Attribute("cluster", seconds);
      }
      return;
    }
    // Fill the table cache from scratch: each scenario built cold at 2 threads and
    // run untraced, which also gives the reference summaries and the untraced
    // episode time the traced runs are compared with.
    fs::remove_all(cache_dir_);
    fs::create_directories(cache_dir_);
    fs::create_directories(out_dir_);
    for (size_t i = 0; i < inputs_.size(); ++i) {
      JobCatalog catalog(CatalogOptions(/*cached=*/true));
      CompiledScenario compiled = Compile(layers, specs_[i], catalog, ScenarioCompileOptions());
      double seconds = 0.0;
      ScenarioOutcome outcome = Run(layers, compiled, &seconds);
      untraced_base_.push_back(seconds);
      if (layers != nullptr) {
        layers->Attribute("cluster", seconds);
        layers->Add("cluster.episode_s", seconds);
      }
      reference_.push_back(SummaryJson(outcome));
    }
  }

  void Pass(Layers* layers, Outcomes& outcomes, Checks& checks) override {
    for (size_t i = 0; i < inputs_.size(); ++i) {
      int64_t attempted = checks.attempted();
      try {
        if (traced_warm_) {
          TracedScenario(layers, i, outcomes, checks);
        } else {
          ColdScenario(layers, i, outcomes, checks);
        }
      } catch (const std::exception& e) {
        // A throwing scenario counts as one failed operation if none was counted yet.
        if (checks.attempted() == attempted) {
          checks.Attempt(1);
        }
        checks.Fail(OpName(inputs_[i], 0), inputs_[i].file, std::string("threw: ") + e.what());
        outcomes.digest += inputs_[i].file + " threw\n";
      }
    }
    checks.EndPass();
  }

 private:
  JobCatalogOptions CatalogOptions(bool cached) const {
    JobCatalogOptions options;
    options.threads = kBuildThreads;
    if (cached) {
      options.cache_dir = cache_dir_;
    }
    return options;
  }

  ScenarioSpec Parse(Layers* layers, const ScenarioInput& input) {
    Span span(layers, "scenario", "scenario.parse_s");
    ScenarioParseResult parsed = ParseScenarioText(input.text);
    if (!parsed.spec.has_value()) {
      throw std::runtime_error(FormatScenarioIssue(input.file, *parsed.issue));
    }
    return std::move(*parsed.spec);
  }

  // CompileScenario, with the catalog's trainings resolved and timed first in the
  // per-layer run so compile_s covers the lowering alone.
  CompiledScenario Compile(Layers* layers, const ScenarioSpec& spec, JobCatalog& catalog,
                           const ScenarioCompileOptions& options) {
    if (layers != nullptr) {
      for (const WorkloadEntrySpec& entry : spec.workload) {
        TimedTraining(layers, [&]() -> const Jockey& {
          return *catalog.Resolve(entry.job).trained->jockey;
        });
      }
    }
    Span span(layers, "scenario", "scenario.compile_s");
    return CompileScenario(spec, catalog, options);
  }

  // RunScenario. In the per-layer run `*seconds` receives the episode time the
  // library's own `scenario_episode` profiler scope booked; otherwise 0.
  ScenarioOutcome Run(Layers* layers, const CompiledScenario& compiled, double* seconds) {
    *seconds = 0.0;
    if (layers == nullptr) {
      return RunScenario(compiled);
    }
    ScenarioOutcome outcome;
    *seconds = ProfiledSeconds("scenario_episode", [&] { outcome = RunScenario(compiled); });
    return outcome;
  }

  // Episode checks shared by both workloads; returns the summary JSON.
  std::string Record(const ScenarioInput& input, const ScenarioOutcome& outcome,
                     Outcomes& outcomes, Checks& checks) {
    checks.Attempt(static_cast<int64_t>(outcome.episodes.size()));
    for (size_t e = 0; e < outcome.episodes.size(); ++e) {
      const ExperimentResult& result = outcome.episodes[e].result;
      if (!result.run.finished) {
        checks.Fail(OpName(input, e), input.file + ": episode " + outcome.episodes[e].label,
                    "did not finish inside the simulation cap");
      }
      outcomes.Add(result.latency_ratio, result.met_deadline, result.frac_above_oracle);
    }
    std::string summary = SummaryJson(outcome);
    outcomes.digest += summary;
    return summary;
  }

  void ColdScenario(Layers* layers, size_t i, Outcomes& outcomes, Checks& checks) {
    const ScenarioInput& input = inputs_[i];
    ScenarioSpec spec = Parse(layers, input);
    JobCatalog catalog(CatalogOptions(/*cached=*/false));
    MetricsRegistry metrics;
    ScenarioCompileOptions options;
    if (layers != nullptr) {
      options.observer = Observer(nullptr, &metrics);
    }
    CompiledScenario compiled = Compile(layers, spec, catalog, options);
    double seconds = 0.0;
    ScenarioOutcome outcome = Run(layers, compiled, &seconds);
    if (layers != nullptr) {
      layers->Attribute("cluster", seconds);
      layers->Add("cluster.episode_s", seconds);
      layers->Add("scenario.episodes", static_cast<double>(outcome.episodes.size()));
      layers->AddCounters(metrics);
    }
    Span span(layers, "scenario");
    Record(input, outcome, outcomes, checks);
  }

  void TracedScenario(Layers* layers, size_t i, Outcomes& outcomes, Checks& checks) {
    const ScenarioInput& input = inputs_[i];
    const std::string stem = out_dir_ + "/" + input.file;
    const std::string trace_path = stem + ".trace.jsonl";
    const std::string series_path = stem + ".timeseries.jsonl";
    OutputFiles files{{trace_path, series_path, stem + ".metrics.json", stem + ".postmortem.json"}};
    ScenarioSpec spec = Parse(layers, input);
    JobCatalog catalog(CatalogOptions(/*cached=*/true));

    MetricsRegistry metrics;
    TimeSeriesRecorder recorder;
    ScenarioOutcome outcome;
    int64_t emitted = 0;
    double traced = 0.0;
    {
      std::ofstream trace(trace_path, std::ios::binary);
      if (!trace) {
        throw std::runtime_error("cannot write " + trace_path);
      }
      AsyncJsonlSink sink(trace);
      CountingSink counting(&sink);
      ScenarioCompileOptions options;
      options.observer = Observer(&counting, &metrics);
      options.timeseries = &recorder;
      CompiledScenario compiled = Compile(layers, spec, catalog, options);
      outcome = Run(layers, compiled, &traced);
      Span close(layers, "obs", "obs.sink_close_s");
      sink.Flush();
      trace.close();
      if (!trace) {
        throw std::runtime_error("error writing " + trace_path);
      }
      emitted = counting.count();
    }
    {
      Span span(layers, "obs", "obs.export_s");
      std::ostringstream metrics_json;
      metrics.WriteJson(metrics_json);
      WriteFileOrThrow(stem + ".metrics.json", metrics_json.str());
      std::ostringstream series;
      WriteTimeSeriesJsonl(series, recorder.Snapshot());
      WriteFileOrThrow(series_path, series.str());
    }
    if (layers != nullptr) {
      // Traced episode time splits into the untraced cost of the same episodes
      // (measured in set-up) and the observability on top of it.
      double base = untraced_base_[i];
      layers->Attribute("cluster", std::min(base, traced));
      layers->Attribute("obs", traced - std::min(base, traced));
      layers->Add("obs.run_traced_s", traced);
      layers->Add("scenario.episodes", static_cast<double>(outcome.episodes.size()));
      layers->Add("obs.trace_events", static_cast<double>(emitted));
      layers->Add("obs.trace_bytes", static_cast<double>(fs::file_size(trace_path)));
      layers->Add("obs.timeseries_bytes", static_cast<double>(fs::file_size(series_path)));
      layers->AddCounters(metrics);
    }

    std::string summary;
    {
      Span span(layers, "scenario");
      summary = Record(input, outcome, outcomes, checks);
    }
    const size_t episodes = outcome.episodes.size();
    if (summary != reference_[i]) {
      FailScenario(checks, input, episodes, "summary JSON",
                   "differs between the cold untraced set-up run and the warm traced run");
    }
    if (args_.inject == "truncate_trace") {
      fs::resize_file(trace_path, fs::file_size(trace_path) - 7);
    }

    // `postmortem --strict --json`: strict re-read, budget, written report.
    PostmortemReport report;
    {
      Span span(layers, "obs", "obs.trace_read_s");
      std::ifstream in(trace_path, std::ios::binary);
      TraceReadResult read = ReadJsonlTrace(in, /*strict=*/true);
      span.Close();
      if (read.first_issue.has_value()) {
        const TraceParseIssue& issue = *read.first_issue;
        FailScenario(checks, input, episodes, "strict trace re-read",
                     trace_path + ":" + std::to_string(issue.line_number) + ": " +
                         issue.message + (issue.field.empty() ? "" : " at field " + issue.field));
        return;
      }
      if (static_cast<int64_t>(read.events.size()) != emitted) {
        FailScenario(checks, input, episodes, "strict trace re-read",
                     "read " + std::to_string(read.events.size()) + " events, the run emitted " +
                         std::to_string(emitted));
      }
      Span build(layers, "obs", "obs.postmortem_s");
      report = BuildPostmortem(read.events);
      std::ostringstream json;
      WritePostmortemJson(json, report);
      WriteFileOrThrow(stem + ".postmortem.json", json.str());
      std::ostringstream table;
      PrintPostmortem(table, report);
    }
    CheckPostmortem(input, outcome, report, checks);

    // `timeline`: read the series back strictly and render it.
    Span span(layers, "obs", "obs.timeline_s");
    std::ifstream in(series_path, std::ios::binary);
    TimeSeriesReadResult read = ReadTimeSeriesJsonl(in);
    if (!read.series.has_value()) {
      FailScenario(checks, input, episodes, "time-series re-read",
                   series_path + ":" + std::to_string(read.line) + ": " + read.message);
      return;
    }
    std::ostringstream text;
    PrintTimeline(text, FilterTimeSeries(*read.series, TimelineFilter()));
    span.Close();
    CheckHealth(input, outcome, report, *read.series, checks);
  }

  // Budget components sum to each job's completion time.
  void CheckPostmortem(const ScenarioInput& input, const ScenarioOutcome& outcome,
                       const PostmortemReport& report, Checks& checks) {
    if (report.jobs.size() != outcome.episodes.size()) {
      FailScenario(checks, input, outcome.episodes.size(), "postmortem",
                   std::to_string(report.jobs.size()) + " jobs for " +
                       std::to_string(outcome.episodes.size()) + " episodes");
      return;
    }
    for (size_t e = 0; e < report.jobs.size(); ++e) {
      const JobPostmortem& job = report.jobs[e];
      double tolerance = 1e-6 * std::max(1.0, job.completion_seconds);
      if (!job.finished || std::abs(job.budget.Total() - job.completion_seconds) > tolerance) {
        checks.Fail(OpName(input, e), input.file + ": postmortem budget of episode " +
                                          outcome.episodes[e].label,
                    "components sum to " + std::to_string(job.budget.Total()) +
                        " s, completion is " + std::to_string(job.completion_seconds) + " s");
      }
    }
  }

  // Each job's final SLO health equals its postmortem verdict.
  void CheckHealth(const ScenarioInput& input, const ScenarioOutcome& outcome,
                   const PostmortemReport& report, const TimeSeries& series, Checks& checks) {
    if (series.runs.size() != outcome.episodes.size() ||
        report.jobs.size() != outcome.episodes.size()) {
      FailScenario(checks, input, outcome.episodes.size(), "SLO health",
                   std::to_string(series.runs.size()) + " time-series runs for " +
                       std::to_string(outcome.episodes.size()) + " episodes");
      return;
    }
    for (size_t e = 0; e < outcome.episodes.size(); ++e) {
      const std::vector<JobTimeline>& jobs = series.runs[e].jobs;
      bool postmortem_missed =
          report.jobs[e].completion_seconds > outcome.episodes[e].result.deadline_seconds;
      if (jobs.size() != 1 || (jobs[0].final_state == SloState::kMissed) != postmortem_missed) {
        checks.Fail(OpName(input, e),
                    input.file + ": SLO health of episode " + outcome.episodes[e].label,
                    "final health disagrees with the postmortem verdict");
      }
    }
  }

  WorkloadArgs args_;
  bool traced_warm_;
  std::string cache_dir_;
  std::string out_dir_;
  std::vector<ScenarioInput> inputs_;
  std::vector<ScenarioSpec> specs_;
  std::vector<std::string> reference_;     // traced_warm: cold untraced summaries
  std::vector<double> untraced_base_;      // traced_warm: untraced episode seconds
};

}  // namespace

std::unique_ptr<Workload> MakeScenarioWorkload(const WorkloadArgs& args, bool traced_warm) {
  return std::make_unique<ScenarioWorkload>(args, traced_warm);
}

}  // namespace perfbench
