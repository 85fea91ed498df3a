// The fleet workload: a few hundred jobs running concurrently on large
// ClusterSimulator cells, one cell after another.
//
// Most cells give each job its own default JockeyController; one pair of cells runs
// the same few dozen jobs under a scarce MultiJobArbiter budget, once with the
// decision cache off and once with it on. Models are trained in set-up at one
// thread, so the timed part has no model build and no observability: its time goes
// to cluster dispatch, the event queue with many pending events, control ticks and
// the arbiter's rebalance.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/cluster/cluster_simulator.h"
#include "src/core/arbiter.h"
#include "src/core/experiment.h"
#include "src/core/policies.h"
#include "src/core/utility.h"
#include "src/obs/metrics.h"
#include "src/scenario/doc.h"
#include "src/util/rng.h"
#include "src/workload/job_generator.h"

namespace perfbench {
namespace {

using namespace jockey;

struct FleetJob {
  int shape = 0;
  bool tight = true;
  double submit_fraction = 0.0;  // of the submission window
  double input_scale = 1.0;
  uint64_t seed = 1;
};

// A cell is a DefaultExperimentCluster; independent cells set their machine count,
// arbiter cells keep the default and share ArbiterConfig's default token budget.
struct FleetCell {
  bool arbiter = false;
  bool decision_cache = false;
  int pair = -1;  // arbiter cells: cells sharing a pair run the same jobs
  std::optional<int> machines;
  uint64_t seed = 1;
  std::vector<FleetJob> jobs;
};

struct TrainedShape {
  std::shared_ptr<const TrainedJob> trained;
  double tight_deadline = 0.0;
  double long_deadline = 0.0;
};

// Times every control tick of the job it wraps.
class TimedController final : public JobController {
 public:
  TimedController(JobController* inner, std::vector<double>* tick_seconds)
      : inner_(inner), tick_seconds_(tick_seconds) {}

  ControlDecision OnTick(const JobRuntimeStatus& status) override {
    double start = Now();
    ControlDecision decision = inner_->OnTick(status);
    tick_seconds_->push_back(Now() - start);
    return decision;
  }
  void OnFinished(SimTime now) override { inner_->OnFinished(now); }

 private:
  JobController* inner_;
  std::vector<double>* tick_seconds_;
};

const DocNode& Field(const DocNode& node, const char* key) {
  const DocNode* value = node.Find(key);
  if (value == nullptr) {
    throw std::runtime_error(std::string("fleet input: line ") + std::to_string(node.line) +
                             ": missing `" + key + "`");
  }
  return *value;
}

double Number(const DocNode& node, const char* key) { return std::stod(Field(node, key).scalar); }

uint64_t Seed(const DocNode& node, const char* key) {
  return std::stoull(Field(node, key).scalar);
}

class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(WorkloadArgs args) : args_(std::move(args)) {}

  void Setup(Layers* layers) override {
    shapes_.clear();
    cells_.clear();
    std::string text = ReadFileOrThrow(args_.inputs_dir + "/fleet.json");
    std::optional<DocNode> doc;
    {
      Span span(layers, "scenario", "scenario.parse_s");
      DocParseIssue issue;
      doc = ParseDoc(text, &issue);
      if (!doc.has_value()) {
        throw std::runtime_error("fleet input: line " + std::to_string(issue.line) + ": " +
                                 issue.message);
      }
    }
    for (const DocNode& shape : Field(*doc, "shapes").items) {
      TrainShape(layers, shape);
    }
    // Submissions spread over the shortest tight deadline, so a cell's jobs overlap.
    window_seconds_ = shapes_.empty() ? 0.0 : shapes_[0].tight_deadline;
    for (const TrainedShape& shape : shapes_) {
      window_seconds_ = std::min(window_seconds_, shape.tight_deadline);
    }
    for (const DocNode& cell : Field(*doc, "cells").items) {
      cells_.push_back(ReadCell(cell));
    }
  }

  void Pass(Layers* layers, Outcomes& outcomes, Checks& checks) override {
    std::map<int, std::vector<double>> pair_completions;
    for (size_t c = 0; c < cells_.size(); ++c) {
      const FleetCell& cell = cells_[c];
      std::vector<double> completions;
      int64_t attempted = checks.attempted();
      try {
        completions = RunCell(layers, c, outcomes, checks);
      } catch (const std::exception& e) {
        // A throwing cell fails all its jobs and takes no part in the pair check.
        if (checks.attempted() == attempted) {
          checks.Attempt(static_cast<int64_t>(cell.jobs.size()));
        }
        for (size_t j = 0; j < cell.jobs.size(); ++j) {
          checks.Fail(OpName(c, j), "cell " + std::to_string(c), std::string("threw: ") + e.what());
        }
        outcomes.digest += "cell " + std::to_string(c) + " threw\n";
        continue;
      }
      if (!cell.arbiter) {
        continue;
      }
      auto [it, first] = pair_completions.emplace(cell.pair, completions);
      if (first) {
        continue;
      }
      for (size_t j = 0; j < completions.size() && j < it->second.size(); ++j) {
        if (completions[j] != it->second[j]) {
          checks.Fail(OpName(c, j),
                      "arbiter pair " + std::to_string(cell.pair) + " job " + std::to_string(j),
                      "completion " + Format(completions[j]) + " s with the decision cache " +
                          (cell.decision_cache ? "on" : "off") + ", " + Format(it->second[j]) +
                          " s with it " + (cell.decision_cache ? "off" : "on"));
        }
      }
    }
    checks.EndPass();
  }

 private:
  static std::string OpName(size_t cell, size_t job) {
    return "cell" + std::to_string(cell) + "#" + std::to_string(job);
  }

  static std::string Format(double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
  }

  // Generates one shape (a Table 2 letter or a random-generator job) and trains it
  // the way the scenario catalog does, at one build thread.
  void TrainShape(Layers* layers, const DocNode& node) {
    std::optional<JobTemplate> tmpl;
    uint64_t shape_seed = 0;
    {
      Span span(layers, "workload", "workload.generate_s");
      if (const DocNode* letter = node.Find("letter")) {
        int index = letter->scalar.empty() ? -1 : letter->scalar[0] - 'A';
        if (index < 0 || index >= 7 || letter->scalar.size() != 1) {
          throw std::runtime_error("fleet input: unknown letter " + letter->scalar);
        }
        JobShapeSpec spec = EvaluationJobSpecs()[static_cast<size_t>(index)];
        shape_seed = spec.seed;
        tmpl = GenerateJob(spec);
      } else {
        RandomJobParams params;  // the default vertex range, as the scenario catalog
        params.min_stages = static_cast<int>(Number(node, "min_stages"));
        params.max_stages = static_cast<int>(Number(node, "max_stages"));
        shape_seed = Seed(node, "seed");
        Rng rng(shape_seed);
        tmpl = MakeRandomJob(Field(node, "random").scalar, rng, params);
      }
    }
    TrainingOptions options;
    options.seed = shape_seed + 500;
    options.jockey.model.threads = 1;
    TrainedShape shape;
    TimedTraining(layers, [&]() -> const Jockey& {
      shape.trained = std::make_shared<const TrainedJob>(TrainJob(std::move(*tmpl), options));
      return *shape.trained->jockey;
    });
    shape.tight_deadline = SuggestDeadlineSeconds(*shape.trained, /*tight=*/true);
    shape.long_deadline = SuggestDeadlineSeconds(*shape.trained, /*tight=*/false);
    shapes_.push_back(std::move(shape));
  }

  FleetCell ReadCell(const DocNode& node) const {
    FleetCell cell;
    cell.arbiter = Field(node, "kind").scalar == "arbiter";
    if (node.Find("machines") != nullptr) {
      cell.machines = static_cast<int>(Number(node, "machines"));
    }
    cell.seed = Seed(node, "seed");
    if (cell.arbiter) {
      cell.decision_cache = Field(node, "decision_cache").scalar == "true";
      cell.pair = static_cast<int>(Number(node, "pair"));
    }
    for (const DocNode& item : Field(node, "jobs").items) {
      FleetJob job;
      job.shape = static_cast<int>(Number(item, "shape"));
      if (job.shape < 0 || job.shape >= static_cast<int>(shapes_.size())) {
        throw std::runtime_error("fleet input: line " + std::to_string(item.line) +
                                 ": shape out of range");
      }
      job.tight = Field(item, "deadline").scalar == "tight";
      job.submit_fraction = Number(item, "submit");
      job.input_scale = Number(item, "input_scale");
      job.seed = Seed(item, "seed");
      cell.jobs.push_back(job);
    }
    return cell;
  }

  // Runs one cell; returns each job's completion seconds in submission order.
  std::vector<double> RunCell(Layers* layers, size_t c, Outcomes& outcomes, Checks& checks) {
    const FleetCell& cell = cells_[c];
    ClusterConfig config = DefaultExperimentCluster(cell.seed);
    config.num_machines = cell.machines.value_or(config.num_machines);
    MetricsRegistry metrics;
    std::vector<double> ticks;
    std::vector<std::unique_ptr<JockeyController>> controllers;
    std::vector<std::unique_ptr<TimedController>> timers;
    std::vector<int> ids;
    std::vector<double> deadlines;
    std::optional<MultiJobArbiter> arbiter;

    ClusterSimulator cluster(config);
    if (layers != nullptr) {
      cluster.set_observer(Observer(nullptr, &metrics));
    }
    Span setup(layers, "core");
    if (cell.arbiter) {
      ArbiterConfig arbiter_config;
      arbiter_config.control.enable_decision_cache = cell.decision_cache;
      if (args_.inject == "arbiter_overadmit") {
        // Negative test: one token short of the per-job floors, so AddJob throws.
        arbiter_config.total_tokens = static_cast<int>(cell.jobs.size()) - 1;
      }
      arbiter.emplace(arbiter_config);
    }
    for (size_t j = 0; j < cell.jobs.size(); ++j) {
      const FleetJob& job = cell.jobs[j];
      const TrainedShape& shape = shapes_[static_cast<size_t>(job.shape)];
      double deadline = job.tight ? shape.tight_deadline : shape.long_deadline;
      double input_scale = job.input_scale;
      if (args_.inject == "arbiter_mismatch" && cell.decision_cache && j == 0) {
        input_scale *= 1.25;  // negative test: the cached cell runs a different job 0
      }
      JobController* controller = nullptr;
      if (arbiter.has_value()) {
        int index = arbiter->AddJob(shape.trained->jockey, DeadlineUtility(deadline));
        controller = arbiter->ControllerFor(index);
      } else {
        controllers.push_back(shape.trained->jockey->MakeController(deadline));
        if (layers != nullptr) {
          controllers.back()->set_observer(Observer(nullptr, &metrics), static_cast<int>(j));
        }
        controller = controllers.back().get();
      }
      if (layers != nullptr) {
        timers.push_back(std::make_unique<TimedController>(controller, &ticks));
        controller = timers.back().get();
      }
      JobSubmission submission;
      submission.submit_time = job.submit_fraction * window_seconds_;
      submission.guaranteed_tokens = 1;
      submission.input_scale = input_scale;
      submission.controller = controller;
      submission.seed = job.seed;
      ids.push_back(cluster.SubmitJob(*shape.trained->tmpl, submission));
      deadlines.push_back(deadline);
    }
    setup.Close();

    double cap = 48 * 3600.0;  // ClusterSimulator::Run's default
    if (args_.inject == "fleet_cap" && c == 0) {
      cap = 1800.0;  // negative test: too short for most jobs to finish
    }
    double start = Now();
    cluster.Run(cap);
    double cell_seconds = Now() - start;

    checks.Attempt(static_cast<int64_t>(ids.size()));
    std::vector<double> completions;
    for (size_t j = 0; j < ids.size(); ++j) {
      const ClusterRunResult& run = cluster.result(ids[j]);
      double completion = run.CompletionSeconds();
      completions.push_back(completion);
      if (!run.finished) {
        checks.Fail(OpName(c, j), "cell " + std::to_string(c) + " job " + std::to_string(j),
                    "did not finish inside the " + Format(cap) + " s simulation cap");
      }
      bool met = run.finished && completion <= deadlines[j];
      double work = run.trace.TotalWorkSeconds();
      double oracle = static_cast<double>(OracleAllocation(work, deadlines[j])) * deadlines[j];
      double requested = run.guaranteed_token_seconds;
      double excess = requested > 0.0 ? std::max(0.0, requested - oracle) / requested : 0.0;
      outcomes.Add(completion / deadlines[j], met, excess);
      outcomes.digest += Format(completion) + ",";
    }
    outcomes.digest += "\n";

    if (layers != nullptr) {
      double tick_seconds = 0.0;
      for (double t : ticks) {
        tick_seconds += t;
      }
      layers->Attribute("core", tick_seconds);
      layers->Attribute("cluster", cell_seconds - tick_seconds);
      layers->Add("cluster.cell_run_s", cell_seconds);
      layers->Add("cluster.dispatch_self_s", cell_seconds - tick_seconds);
      const char* kind = !cell.arbiter        ? "core.tick"
                         : cell.decision_cache ? "core.arbiter_cached_tick"
                                               : "core.arbiter_uncached_tick";
      layers->Add(std::string(kind) + "_s", tick_seconds);
      if (cell.arbiter) {
        // The arbiter's adapters count no ticks in the registry; the decorator does.
        layers->Add("core.arbiter_ticks", static_cast<double>(ticks.size()));
      }
      for (double t : ticks) {
        layers->Sample(cell.arbiter ? "core.arbiter_tick_s" : "core.tick_s", t);
      }
      layers->AddCounters(metrics);
      if (arbiter.has_value() && cell.decision_cache) {
        DecisionCacheStats stats = arbiter->cache_stats();
        layers->Add("core.cache_hits", static_cast<double>(stats.column_hits + stats.decision_hits));
        layers->Add("core.cache_misses",
                    static_cast<double>(stats.column_misses + stats.decision_misses));
      }
    }
    return completions;
  }

  WorkloadArgs args_;
  std::vector<TrainedShape> shapes_;
  std::vector<FleetCell> cells_;
  double window_seconds_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeFleetWorkload(const WorkloadArgs& args) {
  return std::make_unique<FleetWorkload>(args);
}

}  // namespace perfbench
