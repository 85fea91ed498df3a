// Deadline-miss postmortems: turn a JSONL trace back into an explanation.
//
// The trace layer (trace_event.h, jsonl.h) records every control decision and
// cluster event; this analyzer answers the question Jockey's evaluation revolves
// around — *why* was this job late, and where did its latency budget go? Three
// views, all derived purely from the event stream (no simulator state):
//
//  1. Span reconstruction. Each task attempt becomes a ready -> dispatch ->
//     complete/killed span. TaskReadyEvent gives queue entry, TaskDispatchEvent
//     opens an attempt, TaskCompleteEvent closes the winner (and supersedes any
//     still-running duplicate copies, which the simulator cancels silently),
//     TaskKilledEvent closes a loser with its reason.
//
//  2. Critical-path budget attribution. The realized critical path is walked
//     backwards from the task finishing at job completion: a task's first ready
//     time equals — exactly, in doubles, because DrainReady runs inside
//     OnTaskComplete at the same simulated instant — its enabling predecessor's
//     completion time, so the per-task [first_ready, completion] intervals tile
//     [submit, finish] with no gaps. Each interval is partitioned into named
//     components (LatencyBudget) that provably sum to measured completion time;
//     `attribution_residual_seconds` records the (floating-point-only) difference.
//
//  3. Predictor calibration. Every ControlTickEvent's predicted remaining time is
//     joined against realized remaining (completion - elapsed) to give signed-error
//     quantiles per progress bucket — the Fig 8/9 view, but online from any run,
//     including faulted ones.
//
// Multi-run traces (e.g. `jockey_cli chaos --trace-out`, which concatenates many
// seeded runs) are segmented automatically: a JobSubmitEvent for an already-open
// job id, or time running backwards, starts a new run.
//
// Cost: one linear pass. Each event costs O(1) and allocates nothing of its own:
// per-task state lives in flat per-job slots reached through a hash of the task
// id, so the memory grows with the events, never with an id's value.
//
// Determinism: jobs report in id order, critical-path ties break by task id, and all
// numbers format via JsonNumber, so the JSON report is byte-identical across reruns
// of the same seeded trace.

#ifndef SRC_OBS_ANALYSIS_POSTMORTEM_H_
#define SRC_OBS_ANALYSIS_POSTMORTEM_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/obs/trace_event.h"

namespace jockey {

// One reconstructed task attempt. Times are simulated seconds (trace timebase).
struct TaskAttemptSpan {
  int job = 0;
  int stage = 0;
  int task = 0;  // flat task id
  double ready_seconds = 0.0;     // queue entry (== dispatch for speculative copies)
  double dispatch_seconds = 0.0;  // attempt start on a machine
  double end_seconds = 0.0;       // complete / killed / superseded time
  bool spare = false;
  bool speculative = false;

  enum class Outcome : int {
    kCompleted = 0,   // this attempt produced the task's output
    kKilled = 1,      // eviction / task failure / machine failure (see kill_reason)
    kSuperseded = 2,  // another copy completed first; simulator cancelled this one
    kUnresolved = 3,  // still open when the trace ended (truncated trace)
  };
  Outcome outcome = Outcome::kUnresolved;
  KillReason kill_reason = KillReason::kSpareEviction;  // valid when kKilled
};

const char* SpanOutcomeName(TaskAttemptSpan::Outcome outcome);

// Where a job's wall-clock went, attributed along the realized critical path.
// Components partition [submit, finish]: Total() equals measured completion time
// up to floating-point rounding (the residual is reported per job).
struct LatencyBudget {
  double queue = 0.0;                // waiting for a token, control plane healthy
  double control_lag = 0.0;          // waiting while granted < raw ask (moderation)
  double degraded = 0.0;             // waiting under degraded control / blackout
  double exec = 0.0;                 // winning attempt running (useful work)
  double eviction_rework = 0.0;      // running time lost to spare evictions
  double failure_rework = 0.0;       // running time lost to task/machine failures
  double speculation_overlap = 0.0;  // superseded duplicate running, winner not yet

  double Total() const {
    return queue + control_lag + degraded + exec + eviction_rework + failure_rework +
           speculation_overlap;
  }
};

// Stable component order for tables, blame rankings and JSON.
struct BudgetComponent {
  const char* name;
  double seconds;
};
std::vector<BudgetComponent> BudgetComponents(const LatencyBudget& budget);

struct JobPostmortem {
  int run_index = 0;  // which run of a concatenated multi-run trace
  int job = 0;
  bool finished = false;  // JobFinishEvent seen (unfinished jobs get spans only)
  double submit_seconds = 0.0;
  double completion_seconds = 0.0;  // elapsed, == finish - submit
  LatencyBudget budget;
  // budget.Total() - completion_seconds: pure floating-point noise by construction.
  double attribution_residual_seconds = 0.0;
  std::vector<int> critical_path_tasks;  // flat ids, in execution order
  std::vector<TaskAttemptSpan> spans;    // all attempts, in dispatch order
};

// Signed prediction error (predicted - realized remaining seconds) within one
// progress decile.
struct CalibrationBucket {
  double progress_lo = 0.0;
  double progress_hi = 0.0;
  int samples = 0;
  double mean_error = 0.0;
  double p10_error = 0.0;
  double p50_error = 0.0;
  double p90_error = 0.0;
};

struct CalibrationReport {
  std::vector<CalibrationBucket> buckets;  // only non-empty deciles
  int samples = 0;
  double mean_abs_error = 0.0;
  double p50_abs_error = 0.0;
};

struct PostmortemOptions {
  double deadline_seconds = -1.0;  // < 0: no miss/meet verdict
  int progress_buckets = 10;
};

struct PostmortemReport {
  std::vector<JobPostmortem> jobs;  // ordered by (run_index, job id)
  CalibrationReport calibration;
  LatencyBudget total_budget;  // summed over finished jobs
  int runs = 0;
  int events = 0;  // trace events consumed
  // Job-scoped events skipped because their run has no job_submit for the job
  // (0 on every trace the simulators write; a malformed or truncated head of a
  // trace makes the analysis silently drop that job's events).
  int unsubmitted_events = 0;
  double deadline_seconds = -1.0;
  int misses = 0;  // finished jobs over the deadline (0 when no deadline)
  int met = 0;
};

// Analyzes a trace. Events must be in emission order (the order the JSONL reader
// yields them).
PostmortemReport BuildPostmortem(const std::vector<TraceEvent>& events,
                                 const PostmortemOptions& options = {});

// Deterministic machine-readable form: ordered keys, JsonNumber formatting.
void WritePostmortemJson(std::ostream& os, const PostmortemReport& report);

// Human tables: per-job budget breakdown, blame ranking, calibration deciles.
void PrintPostmortem(std::ostream& os, const PostmortemReport& report);

}  // namespace jockey

#endif  // SRC_OBS_ANALYSIS_POSTMORTEM_H_
