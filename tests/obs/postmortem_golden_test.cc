// Golden reports for the postmortem analyzer: the JSON document and the human
// table of real traces are pinned by length and 64-bit FNV-1a, with and without a
// deadline verdict. The inputs drive every path of the span reconstruction and the
// critical-path walk: kills and requeues (gray_failure's machine failures and
// slowdowns, the speculative cell's evictions and bursts), degraded decisions,
// control blackouts, speculative copies that win and lose, many concurrent jobs,
// and a concatenated multi-run trace that segments on time running backwards. Any
// change to the analyzer that alters a byte of a report changes a digest; so does
// a change to the tie rule of the critical-path walk (the smallest task id wins an
// exact-time completion collision). RecurringWorkload's warm starts read
// critical_path_tasks, so one job's path is pinned as well.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/cluster/cluster_simulator.h"
#include "src/core/experiment.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/obs/analysis/postmortem.h"
#include "src/scenario/catalog.h"
#include "src/scenario/compiler.h"
#include "src/scenario/orchestrator.h"
#include "src/scenario/spec.h"
#include "src/sim/table_cache.h"  // HashString: 64-bit FNV-1a
#include "src/workload/job_generator.h"

#ifndef JOCKEY_SCENARIO_DIR
#error "build must define JOCKEY_SCENARIO_DIR"
#endif

namespace jockey {
namespace {

// A scenario's trace: every episode's events, in episode order (what
// `jockey_cli run <scenario> --trace-out` concatenates).
std::vector<TraceEvent> ScenarioTrace(const std::string& filename) {
  const std::string path = std::string(JOCKEY_SCENARIO_DIR) + "/" + filename;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  ScenarioParseResult parsed = ParseScenarioText(buffer.str());
  EXPECT_TRUE(parsed.spec.has_value())
      << (parsed.issue.has_value() ? FormatScenarioIssue(path, *parsed.issue) : "");
  JobCatalog catalog;
  ScenarioCompileOptions options;
  options.base_dir = JOCKEY_SCENARIO_DIR;
  options.capture_events = true;
  ScenarioOutcome outcome = RunScenario(CompileScenario(*parsed.spec, catalog, options));
  std::vector<TraceEvent> events;
  for (EpisodeOutcome& episode : outcome.episodes) {
    events.insert(events.end(), episode.result.events.begin(), episode.result.events.end());
  }
  return events;
}

// A busy cell with straggler outliers and speculation on: speculative copies win
// and lose, spare work is evicted, and twelve jobs run at once. Every job is
// submitted at t=0: SubmitJob emits job_submit at the submission time before the
// run starts, so a later submission would put time out of order.
std::vector<TraceEvent> SpeculativeCellTrace() {
  std::vector<JobTemplate> shapes;
  for (int k = 0; k < 2; ++k) {
    JobShapeSpec spec;
    spec.name = "golden" + std::to_string(k);
    spec.num_stages = 4 + k;
    spec.num_barriers = 1;
    spec.num_vertices = 120 + 60 * k;
    spec.job_median_seconds = 4.0 + k;
    spec.job_p90_seconds = 14.0 + 3 * k;
    spec.fastest_stage_p90 = 2.0;
    spec.slowest_stage_p90 = 25.0;
    spec.seed = 900 + static_cast<uint64_t>(k);
    shapes.push_back(GenerateJob(spec));
    for (auto& model : shapes.back().runtime) {
      model.outlier_prob = 0.08;
    }
  }
  ClusterConfig config;
  config.num_machines = 20;
  config.slots_per_machine = 4;
  config.seed = 31;
  config.machine_failure_rate_per_hour = 3.0;
  config.machine_recovery_seconds = 120.0;
  config.enable_speculation = true;
  config.speculation_check_period_seconds = 20.0;
  config.background.mean_utilization = 0.6;
  config.background.volatility = 0.2;
  config.background.update_period_seconds = 15.0;
  FaultPlan plan(7);
  plan.Add(FaultPlan::MachineBurst(150.0, 300.0, 2, 6));
  FaultInjector injector(plan);
  VectorSink sink;
  ClusterSimulator cluster(config);
  cluster.set_observer(Observer(&sink, nullptr));
  cluster.set_fault_injector(&injector);
  for (int i = 0; i < 12; ++i) {
    JobSubmission s;
    s.guaranteed_tokens = 4 + i % 5;
    s.max_guaranteed_tokens = 20;
    s.use_spare_tokens = i % 4 != 1;
    s.input_scale = 0.9 + 0.02 * i;
    s.seed = 5000 + static_cast<uint64_t>(i);
    cluster.SubmitJob(shapes[static_cast<size_t>(i % 2)], s);
  }
  cluster.Run();
  return std::move(sink).TakeEvents();
}

// A hand-built run with an exact-time completion collision on its critical path:
// tasks 5 and 3 both complete at t=10, the instant task 7 becomes ready. The
// simulators' continuous service times make such ties vanishingly rare, so the tie
// rule needs a trace that has one.
std::vector<TraceEvent> CollisionTrace() {
  std::vector<TraceEvent> ev;
  ev.emplace_back(0.0, JobSubmitEvent{0, 2});
  ev.emplace_back(0.0, TaskReadyEvent{0, 0, 5, false});
  ev.emplace_back(0.0, TaskReadyEvent{0, 0, 3, false});
  ev.emplace_back(0.0, TaskDispatchEvent{0, 0, 5, 0, false, false});
  ev.emplace_back(4.0, TaskDispatchEvent{0, 0, 3, 1, false, false});
  ev.emplace_back(10.0, TaskCompleteEvent{0, 0, 5, false, false});
  ev.emplace_back(10.0, TaskCompleteEvent{0, 0, 3, false, false});
  ev.emplace_back(10.0, TaskReadyEvent{0, 1, 7, false});
  ev.emplace_back(12.0, TaskDispatchEvent{0, 1, 7, 0, false, false});
  ev.emplace_back(20.0, TaskCompleteEvent{0, 1, 7, false, false});
  ev.emplace_back(20.0, JobFinishEvent{0, 20.0});
  return ev;
}

// Single-job runs under a control blackout and a machine burst, one after another
// the way `jockey_cli chaos --trace-out` concatenates them.
std::vector<TraceEvent> BlackoutRunsTrace() {
  JobShapeSpec spec;
  spec.name = "postmortem";
  spec.num_stages = 5;
  spec.num_barriers = 1;
  spec.num_vertices = 220;
  spec.job_median_seconds = 5.0;
  spec.job_p90_seconds = 15.0;
  spec.fastest_stage_p90 = 3.0;
  spec.slowest_stage_p90 = 25.0;
  spec.seed = 61;
  TrainedJob trained = TrainJob(GenerateJob(spec));
  FaultPlan plan(7);
  plan.Add(FaultPlan::ControlBlackout(60.0, 240.0));
  plan.Add(FaultPlan::MachineBurst(120.0, 150.0, 0, 4));
  std::vector<TraceEvent> events;
  for (uint64_t seed : {1u, 2u}) {
    ExperimentOptions options;
    options.deadline_seconds = 1800.0;
    options.seed = seed;
    options.jitter_input = false;
    options.fault_plan = std::make_shared<const FaultPlan>(plan);
    options.capture_events = true;
    ExperimentResult result = RunExperiment(trained, options);
    events.insert(events.end(), result.events.begin(), result.events.end());
  }
  return events;
}

std::string Digest(const std::string& text) {
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(HashString(text)));
  return std::to_string(text.size()) + ":" + digest;
}

// The four pinned renderings of one trace's report.
struct Renderings {
  std::string json;
  std::string json_deadline;
  std::string table;
  std::string table_deadline;
};

Renderings Render(const std::vector<TraceEvent>& events, double deadline_seconds) {
  Renderings out;
  PostmortemOptions with_deadline;
  with_deadline.deadline_seconds = deadline_seconds;
  const PostmortemReport plain = BuildPostmortem(events);
  const PostmortemReport verdict = BuildPostmortem(events, with_deadline);
  std::ostringstream a;
  WritePostmortemJson(a, plain);
  out.json = Digest(a.str());
  std::ostringstream b;
  WritePostmortemJson(b, verdict);
  out.json_deadline = Digest(b.str());
  std::ostringstream c;
  PrintPostmortem(c, plain);
  out.table = Digest(c.str());
  std::ostringstream d;
  PrintPostmortem(d, verdict);
  out.table_deadline = Digest(d.str());
  return out;
}

void ExpectRenderings(const std::vector<TraceEvent>& events, double deadline_seconds,
                      const Renderings& expected) {
  const Renderings actual = Render(events, deadline_seconds);
  EXPECT_EQ(actual.json, expected.json);
  EXPECT_EQ(actual.json_deadline, expected.json_deadline);
  EXPECT_EQ(actual.table, expected.table);
  EXPECT_EQ(actual.table_deadline, expected.table_deadline);
}

TEST(PostmortemGoldenTest, ScenarioAndMultiRunReportsArePinned) {
  const std::vector<TraceEvent> fig6 = ScenarioTrace("fig6_overload.yaml");
  const std::vector<TraceEvent> dropout = ScenarioTrace("chaos_dropout.yaml");
  const std::vector<TraceEvent> gray = ScenarioTrace("gray_failure.yaml");
  const std::vector<TraceEvent> cell = SpeculativeCellTrace();
  const std::vector<TraceEvent> blackout = BlackoutRunsTrace();
  const std::vector<TraceEvent> collision = CollisionTrace();

  // The inputs really exercise the paths the digests are meant to guard.
  int kills = 0;
  int speculative_wins = 0;
  int degraded = 0;
  int blackouts = 0;
  for (const std::vector<TraceEvent>* trace : {&fig6, &dropout, &gray, &cell, &blackout}) {
    for (const TraceEvent& event : *trace) {
      kills += event.kind() == EventKind::kTaskKilled;
      degraded += event.kind() == EventKind::kDegradedDecision;
      if (const auto* complete = std::get_if<TaskCompleteEvent>(&event.payload)) {
        speculative_wins += complete->speculative;
      }
      if (const auto* fault = std::get_if<FaultInjectedEvent>(&event.payload)) {
        blackouts += fault->fault == FaultKind::kControlBlackout;
      }
    }
  }
  EXPECT_GT(kills, 0);
  EXPECT_GT(speculative_wins, 0);
  EXPECT_GT(degraded, 0);
  EXPECT_GT(blackouts, 0);

  std::vector<TraceEvent> multi_run;
  for (const std::vector<TraceEvent>* trace :
       {&fig6, &dropout, &gray, &cell, &blackout, &collision}) {
    multi_run.insert(multi_run.end(), trace->begin(), trace->end());
  }

  ExpectRenderings(fig6, 1800.0,
                   {"2946:be4f5a74b919a63b", "3020:eb74bbc4f78c592e",
                    "1032:9d6c16e2bf5779d1", "1065:0663a1a06ce4f394"});
  ExpectRenderings(dropout, 1800.0,
                   {"4612:d40b57860819907d", "4758:4da11734b2e99d1c",
                    "1251:38c0392481e5ad06", "1284:917afb45230e8745"});
  ExpectRenderings(gray, 1800.0,
                   {"7473:af666bad7a028550", "7679:b754434e4d674827",
                    "1762:6e87f707134551d2", "1795:0a5a3ad0029d3989"});
  ExpectRenderings(multi_run, 1800.0,
                   {"19616:ac818c237e1c01fc", "20203:7c34d20d2608e4c5",
                    "3948:5cfea002e774aa49", "3982:254251b10db8cba0"});

  // Every job of the concatenation is analyzed, and the deadline splits verdicts.
  PostmortemOptions with_deadline;
  with_deadline.deadline_seconds = 1800.0;
  const PostmortemReport multi = BuildPostmortem(multi_run, with_deadline);
  EXPECT_EQ(multi.runs, 18);
  EXPECT_EQ(multi.jobs.size(), 29u);
  EXPECT_EQ(multi.unsubmitted_events, 0);
  EXPECT_EQ(multi.misses, 9);
  EXPECT_EQ(multi.met, 20);

  const PostmortemReport report = BuildPostmortem(fig6);
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].critical_path_tasks,
            (std::vector<int>{125, 497, 1004, 2516, 3932, 5454}));

  // Exact-time collisions resolve to the smallest task id completing then.
  const PostmortemReport tie = BuildPostmortem(collision);
  ASSERT_EQ(tie.jobs.size(), 1u);
  EXPECT_EQ(tie.jobs[0].critical_path_tasks, (std::vector<int>{3, 7}));
  EXPECT_DOUBLE_EQ(tie.jobs[0].budget.queue, 6.0);  // [0,4) + [10,12)
  EXPECT_DOUBLE_EQ(tie.jobs[0].budget.exec, 14.0);  // [4,10) + [12,20)
}

}  // namespace
}  // namespace jockey
