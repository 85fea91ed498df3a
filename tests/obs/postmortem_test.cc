// Tests for the postmortem analyzer: span reconstruction, critical-path budget
// attribution (the summation invariant), predictor calibration, multi-run
// segmentation, and byte-deterministic JSON.

#include "src/obs/analysis/postmortem.h"

#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/fault/fault_plan.h"
#include "src/obs/jsonl.h"
#include "src/workload/job_generator.h"

namespace {

// Bytes requested from the global allocator, so a test can bound what one call
// allocates. Counting only: every plain and nothrow request is served by malloc
// and freed by the matching delete below; the array and aligned forms keep their
// library (or sanitizer) pairs.
std::atomic<size_t> g_allocated_bytes{0};

}  // namespace

// Out of line, so that GCC does not pair an inlined free() with a new-expression
// and warn about a mismatch.
__attribute__((noinline)) void* operator new(size_t size) {
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new(size_t size, const std::nothrow_t&) noexcept {
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, size_t /*size*/) noexcept {
  std::free(p);
}

namespace jockey {
namespace {

// -- Hand-built traces: every time is chosen by the test, so expected budget
// components are exact.

void Submit(std::vector<TraceEvent>& ev, double t, int job, int tokens) {
  ev.emplace_back(t, JobSubmitEvent{job, tokens});
}
void Ready(std::vector<TraceEvent>& ev, double t, int task, bool requeued = false) {
  ev.emplace_back(t, TaskReadyEvent{0, 0, task, requeued});
}
void Dispatch(std::vector<TraceEvent>& ev, double t, int task, bool speculative = false) {
  ev.emplace_back(t, TaskDispatchEvent{0, 0, task, 0, false, speculative});
}
void Complete(std::vector<TraceEvent>& ev, double t, int task, bool speculative = false) {
  ev.emplace_back(t, TaskCompleteEvent{0, 0, task, false, speculative});
}
void Killed(std::vector<TraceEvent>& ev, double t, int task, KillReason reason,
            bool requeued) {
  ev.emplace_back(t, TaskKilledEvent{0, 0, task, reason, requeued});
}
void Finish(std::vector<TraceEvent>& ev, double t, double completion) {
  ev.emplace_back(t, JobFinishEvent{0, completion});
}

TEST(PostmortemTest, ChainQueueAndExecTileCompletion) {
  std::vector<TraceEvent> ev;
  Submit(ev, 0.0, 0, 4);
  Ready(ev, 0.0, 0);
  Dispatch(ev, 5.0, 0);
  Complete(ev, 10.0, 0);
  Ready(ev, 10.0, 1);  // enabled by task 0 at the same instant
  Dispatch(ev, 12.0, 1);
  Complete(ev, 20.0, 1);
  Finish(ev, 20.0, 20.0);

  PostmortemReport report = BuildPostmortem(ev);
  ASSERT_EQ(report.jobs.size(), 1u);
  const JobPostmortem& job = report.jobs[0];
  EXPECT_TRUE(job.finished);
  EXPECT_EQ(job.critical_path_tasks, (std::vector<int>{0, 1}));
  EXPECT_DOUBLE_EQ(job.budget.queue, 7.0);  // [0,5) + [10,12)
  EXPECT_DOUBLE_EQ(job.budget.exec, 13.0);  // [5,10) + [12,20)
  EXPECT_DOUBLE_EQ(job.budget.Total(), 20.0);
  EXPECT_NEAR(job.attribution_residual_seconds, 0.0, 1e-9);
}

// The satellite edge case: the same task is killed, requeued, then raced by a
// speculative copy that wins. Every second must still land in exactly one bucket.
TEST(PostmortemTest, KillRequeueSpeculateStillSums) {
  std::vector<TraceEvent> ev;
  Submit(ev, 0.0, 0, 4);
  Ready(ev, 0.0, 0);
  Dispatch(ev, 1.0, 0);
  Killed(ev, 4.0, 0, KillReason::kTaskFailure, /*requeued=*/true);
  Ready(ev, 4.0, 0, /*requeued=*/true);
  Dispatch(ev, 5.0, 0);  // the requeued copy
  Dispatch(ev, 6.0, 0, /*speculative=*/true);
  Complete(ev, 9.0, 0, /*speculative=*/true);  // the speculative copy wins
  Finish(ev, 9.0, 9.0);

  PostmortemReport report = BuildPostmortem(ev);
  ASSERT_EQ(report.jobs.size(), 1u);
  const JobPostmortem& job = report.jobs[0];
  ASSERT_EQ(job.spans.size(), 3u);
  EXPECT_EQ(job.spans[0].outcome, TaskAttemptSpan::Outcome::kKilled);
  EXPECT_EQ(job.spans[0].kill_reason, KillReason::kTaskFailure);
  EXPECT_EQ(job.spans[1].outcome, TaskAttemptSpan::Outcome::kSuperseded);
  EXPECT_EQ(job.spans[2].outcome, TaskAttemptSpan::Outcome::kCompleted);
  EXPECT_TRUE(job.spans[2].speculative);
  // A speculative copy never queued: its ready time is its dispatch time.
  EXPECT_DOUBLE_EQ(job.spans[2].ready_seconds, 6.0);
  EXPECT_DOUBLE_EQ(job.budget.queue, 2.0);                // [0,1) + [4,5)
  EXPECT_DOUBLE_EQ(job.budget.failure_rework, 3.0);       // [1,4)
  EXPECT_DOUBLE_EQ(job.budget.speculation_overlap, 1.0);  // [5,6): only the loser ran
  EXPECT_DOUBLE_EQ(job.budget.exec, 3.0);                 // [6,9): winner running
  EXPECT_DOUBLE_EQ(job.budget.Total(), 9.0);
}

TEST(PostmortemTest, MachineFailureMidAttemptIsFailureRework) {
  std::vector<TraceEvent> ev;
  Submit(ev, 0.0, 0, 4);
  Ready(ev, 0.0, 0);
  Dispatch(ev, 1.0, 0);
  Killed(ev, 3.0, 0, KillReason::kMachineFailure, /*requeued=*/true);
  Ready(ev, 3.0, 0, /*requeued=*/true);
  Dispatch(ev, 4.0, 0);
  Complete(ev, 8.0, 0);
  Finish(ev, 8.0, 8.0);

  PostmortemReport report = BuildPostmortem(ev);
  ASSERT_EQ(report.jobs.size(), 1u);
  const JobPostmortem& job = report.jobs[0];
  EXPECT_DOUBLE_EQ(job.budget.queue, 2.0);
  EXPECT_DOUBLE_EQ(job.budget.failure_rework, 2.0);
  EXPECT_DOUBLE_EQ(job.budget.exec, 4.0);
  EXPECT_DOUBLE_EQ(job.budget.Total(), 8.0);
}

TEST(PostmortemTest, SpareEvictionIsEvictionRework) {
  std::vector<TraceEvent> ev;
  Submit(ev, 0.0, 0, 4);
  Ready(ev, 0.0, 0);
  Dispatch(ev, 0.0, 0);
  Killed(ev, 2.5, 0, KillReason::kSpareEviction, /*requeued=*/true);
  Ready(ev, 2.5, 0, /*requeued=*/true);
  Dispatch(ev, 3.0, 0);
  Complete(ev, 7.0, 0);
  Finish(ev, 7.0, 7.0);

  PostmortemReport report = BuildPostmortem(ev);
  const JobPostmortem& job = report.jobs.at(0);
  EXPECT_DOUBLE_EQ(job.budget.eviction_rework, 2.5);
  EXPECT_DOUBLE_EQ(job.budget.queue, 0.5);
  EXPECT_DOUBLE_EQ(job.budget.exec, 4.0);
  EXPECT_DOUBLE_EQ(job.budget.Total(), 7.0);
}

// Waiting time is split by the control-plane state in force: below-ask ticks become
// control_lag, degraded/blackout ticks become degraded time.
TEST(PostmortemTest, QueueTimeSplitsByControlState) {
  std::vector<TraceEvent> ev;
  Submit(ev, 0.0, 0, 4);
  Ready(ev, 0.0, 0);
  // Tick at t=0: granted 2 vs raw ask 6 -> control lag.
  ev.emplace_back(0.0, ControlTickEvent{0, 0.0, 0.0, 30.0, 0.0, 6.0, 6.0, 2, 1.0});
  // Tick at t=4: granted matches the ask, but the decision is degraded.
  ev.emplace_back(4.0, ControlTickEvent{0, 4.0, 0.1, 26.0, 0.0, 2.0, 2.0, 2, 1.0});
  ev.emplace_back(4.0, DegradedDecisionEvent{0, DegradeMode::kStaleHold, 4.0, 9.0, 2, 0.0});
  // Tick at t=8: healthy and satisfied.
  ev.emplace_back(8.0, ControlTickEvent{0, 8.0, 0.2, 22.0, 0.0, 2.0, 2.0, 2, 1.0});
  Dispatch(ev, 10.0, 0);
  Complete(ev, 20.0, 0);
  Finish(ev, 20.0, 20.0);

  PostmortemReport report = BuildPostmortem(ev);
  const JobPostmortem& job = report.jobs.at(0);
  EXPECT_DOUBLE_EQ(job.budget.control_lag, 4.0);  // [0,4)
  EXPECT_DOUBLE_EQ(job.budget.degraded, 4.0);     // [4,8)
  EXPECT_DOUBLE_EQ(job.budget.queue, 2.0);        // [8,10)
  EXPECT_DOUBLE_EQ(job.budget.exec, 10.0);
  EXPECT_DOUBLE_EQ(job.budget.Total(), 20.0);
}

TEST(PostmortemTest, MultiRunTraceSegmentsOnResubmit) {
  std::vector<TraceEvent> ev;
  for (int run = 0; run < 2; ++run) {
    Submit(ev, 0.0, 0, 4);  // time resets: same job id, t back to 0
    Ready(ev, 0.0, 0);
    Dispatch(ev, 1.0, 0);
    Complete(ev, 5.0, 0);
    Finish(ev, 5.0, 5.0);
  }
  PostmortemReport report = BuildPostmortem(ev);
  EXPECT_EQ(report.runs, 2);
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_EQ(report.jobs[0].run_index, 0);
  EXPECT_EQ(report.jobs[1].run_index, 1);
  EXPECT_DOUBLE_EQ(report.jobs[1].budget.Total(), 5.0);
}

// Task ids the trace reader accepts but no simulator writes: negative and INT_MAX
// ids, a completion and a kill with no dispatch, a ready task never dispatched, and
// a repeated completion. The report is pinned, and the analysis allocates in
// proportion to the events, never to the value of an id.
TEST(PostmortemTest, HostileTaskIdsKeepTheReportAndBoundedMemory) {
  std::vector<TraceEvent> ev;
  Submit(ev, 0.0, 0, 4);
  Ready(ev, 0.0, -1);
  Ready(ev, 0.0, INT_MAX);
  Ready(ev, 0.0, 5);  // never dispatched
  Dispatch(ev, 1.0, -1);
  Dispatch(ev, 1.0, INT_MAX);
  Complete(ev, 2.0, 7);  // no dispatch
  Killed(ev, 2.5, 8, KillReason::kTaskFailure, /*requeued=*/false);  // no dispatch
  Complete(ev, 3.0, -1);
  Killed(ev, 3.75, INT_MAX, KillReason::kSpareEviction, /*requeued=*/true);
  Ready(ev, 3.75, INT_MAX, /*requeued=*/true);
  Dispatch(ev, 4.0, INT_MAX);
  Complete(ev, 6.0, INT_MAX);
  Ready(ev, 6.0, 9);  // enabled by INT_MAX's first completion
  Dispatch(ev, 6.5, 9);
  Complete(ev, 7.0, INT_MAX);  // repeated
  Complete(ev, 8.0, 9);
  Finish(ev, 8.0, 8.0);

  PostmortemOptions options;
  options.deadline_seconds = 5.0;
  const size_t before = g_allocated_bytes.load();
  PostmortemReport report = BuildPostmortem(ev, options);
  const size_t allocated = g_allocated_bytes.load() - before;
  EXPECT_LT(allocated, size_t{1} << 16);

  ASSERT_EQ(report.jobs.size(), 1u);
  const JobPostmortem& job = report.jobs[0];
  EXPECT_EQ(report.unsubmitted_events, 0);
  EXPECT_EQ(report.misses, 1);
  // Task -1 completes at 3.0, but the walk never enters a negative id.
  EXPECT_EQ(job.critical_path_tasks, (std::vector<int>{INT_MAX, 9}));
  ASSERT_EQ(job.spans.size(), 4u);
  const struct {
    int task;
    double ready;
    double dispatch;
    double end;
    TaskAttemptSpan::Outcome outcome;
  } kSpans[] = {
      {-1, 0.0, 1.0, 3.0, TaskAttemptSpan::Outcome::kCompleted},
      {INT_MAX, 0.0, 1.0, 3.75, TaskAttemptSpan::Outcome::kKilled},
      {INT_MAX, 3.75, 4.0, 6.0, TaskAttemptSpan::Outcome::kCompleted},
      {9, 6.0, 6.5, 8.0, TaskAttemptSpan::Outcome::kCompleted},
  };
  for (size_t i = 0; i < job.spans.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(job.spans[i].task, kSpans[i].task);
    EXPECT_EQ(job.spans[i].ready_seconds, kSpans[i].ready);
    EXPECT_EQ(job.spans[i].dispatch_seconds, kSpans[i].dispatch);
    EXPECT_EQ(job.spans[i].end_seconds, kSpans[i].end);
    EXPECT_EQ(job.spans[i].outcome, kSpans[i].outcome);
  }
  EXPECT_EQ(job.spans[1].kill_reason, KillReason::kSpareEviction);
  EXPECT_DOUBLE_EQ(job.budget.queue, 1.75);            // [0,1) + [3.75,4) + [6,6.5)
  EXPECT_DOUBLE_EQ(job.budget.eviction_rework, 2.75);  // [1,3.75)
  EXPECT_DOUBLE_EQ(job.budget.exec, 3.5);              // [4,6) + [6.5,8)
  EXPECT_DOUBLE_EQ(job.budget.Total(), 8.0);
}

// -- Real traces through the experiment harness.

JobTemplate SmallJob(uint64_t seed = 61) {
  JobShapeSpec spec;
  spec.name = "postmortem";
  spec.num_stages = 5;
  spec.num_barriers = 1;
  spec.num_vertices = 220;
  spec.job_median_seconds = 5.0;
  spec.job_p90_seconds = 15.0;
  spec.fastest_stage_p90 = 3.0;
  spec.slowest_stage_p90 = 25.0;
  spec.seed = seed;
  return GenerateJob(spec);
}

std::vector<TraceEvent> CaptureRun(const TrainedJob& trained, uint64_t seed,
                                   const FaultPlan* plan,
                                   ExperimentResult* result_out = nullptr) {
  ExperimentOptions options;
  options.deadline_seconds = 1800.0;
  options.policy = PolicyKind::kJockey;
  options.seed = seed;
  options.jitter_input = false;
  if (plan != nullptr) {
    options.fault_plan = std::make_shared<const FaultPlan>(*plan);
  }
  options.capture_events = true;
  ExperimentResult result = RunExperiment(trained, options);
  std::vector<TraceEvent> events = std::move(result.events);
  if (result_out != nullptr) {
    *result_out = std::move(result);
  }
  return events;
}

TEST(PostmortemIntegrationTest, ComponentsSumOnRealRuns) {
  TrainedJob trained = TrainJob(SmallJob());
  FaultPlan faults(7);
  faults.Add(FaultPlan::ControlBlackout(60.0, 240.0));
  faults.Add(FaultPlan::MachineBurst(120.0, 150.0, 0, 4));
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (const FaultPlan* plan :
         {static_cast<const FaultPlan*>(nullptr), static_cast<const FaultPlan*>(&faults)}) {
      ExperimentResult result;
      std::vector<TraceEvent> events = CaptureRun(trained, seed, plan, &result);
      PostmortemReport report = BuildPostmortem(events);
      ASSERT_EQ(report.jobs.size(), 1u);
      const JobPostmortem& job = report.jobs[0];
      ASSERT_TRUE(job.finished);
      EXPECT_DOUBLE_EQ(job.completion_seconds, result.completion_seconds);
      // The acceptance bound is 1%; by construction the residual is only
      // floating-point noise, so assert far tighter.
      EXPECT_LE(std::fabs(job.attribution_residual_seconds),
                1e-6 * job.completion_seconds)
          << "seed " << seed << (plan != nullptr ? " faulted" : " clean");
      EXPECT_GT(job.budget.exec, 0.0);
    }
  }
}

TEST(PostmortemIntegrationTest, FinishDuringBlackoutStillSums) {
  TrainedJob trained = TrainJob(SmallJob());
  // Blackout from early in the run past any plausible finish: the job completes
  // while the control plane is dark.
  FaultPlan faults(11);
  faults.Add(FaultPlan::ControlBlackout(90.0, 100000.0));
  ExperimentResult result;
  std::vector<TraceEvent> events = CaptureRun(trained, 5, &faults, &result);
  ASSERT_TRUE(result.run.finished);
  PostmortemReport report = BuildPostmortem(events);
  ASSERT_EQ(report.jobs.size(), 1u);
  const JobPostmortem& job = report.jobs[0];
  EXPECT_LE(std::fabs(job.attribution_residual_seconds), 1e-6 * job.completion_seconds);
}

TEST(PostmortemIntegrationTest, JsonIsByteDeterministicAndSurvivesJsonlRoundTrip) {
  TrainedJob trained = TrainJob(SmallJob());
  std::vector<TraceEvent> events = CaptureRun(trained, 9, nullptr);

  PostmortemOptions options;
  options.deadline_seconds = 1800.0;
  std::ostringstream a;
  WritePostmortemJson(a, BuildPostmortem(events, options));
  std::ostringstream b;
  WritePostmortemJson(b, BuildPostmortem(events, options));
  EXPECT_EQ(a.str(), b.str());

  // Serialize to JSONL and parse back: the analysis must not depend on anything
  // outside the wire format.
  std::stringstream jsonl;
  for (const TraceEvent& event : events) {
    jsonl << ToJsonLine(event) << '\n';
  }
  TraceReadResult parsed = ReadJsonlTrace(jsonl);
  EXPECT_EQ(parsed.malformed_lines, 0);
  std::ostringstream c;
  WritePostmortemJson(c, BuildPostmortem(parsed.events, options));
  EXPECT_EQ(a.str(), c.str());
}

TEST(PostmortemIntegrationTest, CalibrationMatchesHandJoinedTicks) {
  TrainedJob trained = TrainJob(SmallJob());
  std::vector<TraceEvent> events = CaptureRun(trained, 4, nullptr);
  PostmortemReport report = BuildPostmortem(events);
  ASSERT_EQ(report.jobs.size(), 1u);
  double completion = report.jobs[0].completion_seconds;

  // Join predicted against realized remaining by hand, straight off the tick
  // events, and require the report's aggregate to agree exactly.
  int ticks = 0;
  double abs_sum = 0.0;
  for (const TraceEvent& event : events) {
    if (const auto* tick = std::get_if<ControlTickEvent>(&event.payload)) {
      ++ticks;
      double realized = completion - tick->elapsed_seconds;
      abs_sum += std::fabs(tick->predicted_remaining_seconds - realized);
    }
  }
  ASSERT_GT(ticks, 0);
  EXPECT_EQ(report.calibration.samples, ticks);
  EXPECT_DOUBLE_EQ(report.calibration.mean_abs_error, abs_sum / ticks);
  // Every bucket's samples are accounted for.
  int bucketed = 0;
  for (const CalibrationBucket& bucket : report.calibration.buckets) {
    bucketed += bucket.samples;
  }
  EXPECT_EQ(bucketed, ticks);
}

TEST(PostmortemIntegrationTest, ChaosStyleConcatenatedTraceSegments) {
  TrainedJob trained = TrainJob(SmallJob());
  std::vector<TraceEvent> all;
  for (uint64_t seed : {1u, 2u}) {
    std::vector<TraceEvent> events = CaptureRun(trained, seed, nullptr);
    all.insert(all.end(), events.begin(), events.end());
  }
  PostmortemReport report = BuildPostmortem(all);
  EXPECT_EQ(report.runs, 2);
  ASSERT_EQ(report.jobs.size(), 2u);
  for (const JobPostmortem& job : report.jobs) {
    EXPECT_TRUE(job.finished);
    EXPECT_LE(std::fabs(job.attribution_residual_seconds), 1e-6 * job.completion_seconds);
  }
}

}  // namespace
}  // namespace jockey
