#include "src/obs/analysis/postmortem.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/json_format.h"
#include "src/obs/prof/profiler.h"

namespace jockey {

const char* SpanOutcomeName(TaskAttemptSpan::Outcome outcome) {
  switch (outcome) {
    case TaskAttemptSpan::Outcome::kCompleted:
      return "completed";
    case TaskAttemptSpan::Outcome::kKilled:
      return "killed";
    case TaskAttemptSpan::Outcome::kSuperseded:
      return "superseded";
    case TaskAttemptSpan::Outcome::kUnresolved:
      return "unresolved";
  }
  return "unknown";
}

std::vector<BudgetComponent> BudgetComponents(const LatencyBudget& b) {
  return {{"queue", b.queue},
          {"control_lag", b.control_lag},
          {"degraded", b.degraded},
          {"exec", b.exec},
          {"eviction_rework", b.eviction_rework},
          {"failure_rework", b.failure_rework},
          {"speculation_overlap", b.speculation_overlap}};
}

namespace {

// Piecewise-constant control-plane state, one point per control tick (plus extra
// points for degraded decisions / blackout symptoms landing between ticks). A
// point's state holds until the next point; the last point's state extends to the
// end of the run.
struct ControlPoint {
  double time = 0.0;
  bool control_lag = false;  // granted tokens below the raw (unmoderated) ask
  bool degraded = false;     // degraded-mode decision or blackout at this tick
};

void AddControlPoint(std::vector<ControlPoint>& pts, double t, bool lag, bool has_lag,
                     bool degraded) {
  if (!pts.empty() && pts.back().time == t) {
    if (has_lag) {
      pts.back().control_lag = lag;
    }
    pts.back().degraded = pts.back().degraded || degraded;
    return;
  }
  ControlPoint p;
  p.time = t;
  // A degraded-only point inherits the lag state still in force.
  p.control_lag = has_lag ? lag : (pts.empty() ? false : pts.back().control_lag);
  p.degraded = degraded;
  pts.push_back(p);
}

// Attributes the waiting interval [a, b) into queue / control_lag / degraded,
// splitting at control points so state changes mid-wait land in the right bucket.
void AddQueueSpan(LatencyBudget& budget, const std::vector<ControlPoint>& pts, double a,
                  double b) {
  if (b <= a) {
    return;
  }
  auto it = std::upper_bound(pts.begin(), pts.end(), a,
                             [](double t, const ControlPoint& p) { return t < p.time; });
  const ControlPoint* state = (it == pts.begin()) ? nullptr : &*(it - 1);
  double cur = a;
  while (cur < b) {
    double next = (it != pts.end() && it->time < b) ? it->time : b;
    double len = next - cur;
    if (state != nullptr && state->degraded) {
      budget.degraded += len;
    } else if (state != nullptr && state->control_lag) {
      budget.control_lag += len;
    } else {
      budget.queue += len;
    }
    if (it != pts.end() && next == it->time) {
      state = &*it;
      ++it;
    }
    cur = next;
  }
}

// One predictor sample: progress at the tick, signed error predicted - realized.
struct CalSample {
  double progress = 0.0;
  double error = 0.0;
};

struct TickSample {
  double elapsed = 0.0;
  double progress = 0.0;
  double predicted = 0.0;
};

constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

// Open-addressing map from a task id to a dense slot number, handed out in order
// of first sight. The trace reader accepts any int as an id, so an id is hashed,
// never used as an index: the table grows with the ids seen, not with their
// values. Fibonacci hashing spreads the dense ids the simulators write; the table
// is kept at most half full.
class SlotIndex {
 public:
  // The slot of `id`, or kNone.
  uint32_t Find(int id) const { return entries_.empty() ? kNone : entries_[Probe(id)].slot; }

  // The slot of `id`; an id not seen before gets the next slot number.
  uint32_t Insert(int id) {
    if (2 * (size_ + 1) > entries_.size()) {
      std::vector<Entry> old = std::move(entries_);
      entries_.assign(old.empty() ? 16 : 2 * old.size(), Entry{});
      shift_ = 64 - std::countr_zero(entries_.size());
      for (const Entry& entry : old) {
        if (entry.slot != kNone) {
          entries_[Probe(entry.id)] = entry;
        }
      }
    }
    Entry& entry = entries_[Probe(id)];
    if (entry.slot == kNone) {
      entry = {id, size_++};
    }
    return entry.slot;
  }

 private:
  struct Entry {
    int id = 0;
    uint32_t slot = kNone;
  };

  // The position holding `id`, or the empty one where it would go.
  size_t Probe(int id) const {
    const size_t mask = entries_.size() - 1;
    size_t i = (uint64_t{static_cast<uint32_t>(id)} * 0x9E3779B97F4A7C15ull) >> shift_;
    while (entries_[i].slot != kNone && entries_[i].id != id) {
      i = (i + 1) & mask;
    }
    return i;
  }

  std::vector<Entry> entries_;
  int shift_ = 64;
  uint32_t size_ = 0;
};

// One task's scan state. Its lists thread through the job's pools by index, so a
// task costs one slot and no allocation of its own.
struct TaskAcc {
  int task = 0;
  bool has_ready = false;
  bool has_completion = false;
  bool on_path = false;           // already walked by the critical-path walk
  double first_ready = 0.0;       // first DAG readiness
  double completion = 0.0;        // winning (first) completion
  uint32_t pending_head = kNone;  // ready times awaiting a dispatch, oldest first,
  uint32_t pending_tail = kNone;  //   through JobAcc::ready_nodes
  uint32_t open_top = kNone;      // newest open attempt; older ones via AttemptLinks::below
  uint32_t last_attempt = kNone;  // newest attempt; older ones via AttemptLinks::earlier
};

struct ReadyNode {
  double time = 0.0;
  uint32_t next = kNone;
};

// Per attempt, parallel to JobAcc::spans.
struct AttemptLinks {
  uint32_t below = kNone;    // the next older attempt still open under this one
  uint32_t earlier = kNone;  // the task's previous attempt
};

// Accumulated per-job state while scanning one run's events.
struct JobAcc {
  int job = 0;
  bool finished = false;
  double submit = 0.0;
  double finish = 0.0;              // absolute trace time of JobFinishEvent
  double completion_elapsed = 0.0;  // from JobFinishEvent
  std::vector<TaskAttemptSpan> spans;
  std::vector<AttemptLinks> links;
  SlotIndex task_index;
  std::vector<TaskAcc> tasks;  // by task_index slot
  std::vector<ReadyNode> ready_nodes;
  std::vector<ControlPoint> control;
  std::vector<TickSample> ticks;

  // The slot of `task`, created on first sight. Valid until the next call.
  TaskAcc& Task(int task) {
    const uint32_t slot = task_index.Insert(task);
    if (slot == tasks.size()) {
      tasks.emplace_back().task = task;
    }
    return tasks[slot];
  }

  // The slot of `task`, or nullptr if no event has named it.
  TaskAcc* FindTask(int task) {
    const uint32_t slot = task_index.Find(task);
    return slot == kNone ? nullptr : &tasks[slot];
  }
};

// A task's winning completion, for the critical-path walk's time lookups.
struct Completion {
  double time = 0.0;
  int task = 0;
  uint32_t slot = 0;
};

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

class Analyzer {
 public:
  explicit Analyzer(const PostmortemOptions& options) : options_(options) {}

  void Consume(const TraceEvent& event) {
    ++report_.events;
    double t = event.time_seconds;
    // Run boundary: time running backwards (chaos sweeps concatenate seeded runs
    // that each restart at t=0), or a re-submit of an already-open job id.
    if (t < last_time_ - 1e-9) {
      FlushRun();
    }
    if (event.kind() == EventKind::kJobSubmit) {
      int id = std::get<JobSubmitEvent>(event.payload).job;
      if (FindJob(id) != jobs_.end()) {
        FlushRun();
      }
    }
    last_time_ = std::max(last_time_, t);
    Dispatch(event);
  }

  PostmortemReport Finish() {
    FlushRun();
    BuildCalibration();
    BuildAggregate();
    return std::move(report_);
  }

 private:
  // The job `id` if the current run has it, else where it would be inserted.
  std::vector<JobAcc>::iterator LowerBoundJob(int id) {
    return std::lower_bound(jobs_.begin(), jobs_.end(), id,
                            [](const JobAcc& job, int v) { return job.job < v; });
  }
  std::vector<JobAcc>::iterator FindJob(int id) {
    auto it = LowerBoundJob(id);
    return it != jobs_.end() && it->job == id ? it : jobs_.end();
  }

  // The accumulator of the job an event names, or nullptr when the current run has
  // no job_submit for it: the event is then skipped and counted.
  JobAcc* Submitted(int job) {
    auto it = FindJob(job);
    if (it == jobs_.end()) {
      ++report_.unsubmitted_events;
      return nullptr;
    }
    return &*it;
  }

  void Dispatch(const TraceEvent& event) {
    double t = event.time_seconds;
    switch (event.kind()) {
      case EventKind::kJobSubmit: {
        const auto& e = std::get<JobSubmitEvent>(event.payload);
        // A new id: Consume flushed the run on a repeat.
        JobAcc& job = *jobs_.emplace(LowerBoundJob(e.job));
        job.job = e.job;
        job.submit = t;
        break;
      }
      case EventKind::kJobFinish: {
        const auto& e = std::get<JobFinishEvent>(event.payload);
        if (JobAcc* job = Submitted(e.job)) {
          job->finished = true;
          job->finish = t;
          job->completion_elapsed = e.completion_seconds;
        }
        break;
      }
      case EventKind::kTaskReady: {
        const auto& e = std::get<TaskReadyEvent>(event.payload);
        if (JobAcc* job = Submitted(e.job)) {
          TaskAcc& task = job->Task(e.task);
          const auto node = static_cast<uint32_t>(job->ready_nodes.size());
          job->ready_nodes.push_back({t, kNone});
          if (task.pending_tail == kNone) {
            task.pending_head = node;
          } else {
            job->ready_nodes[task.pending_tail].next = node;
          }
          task.pending_tail = node;
          if (!task.has_ready) {
            task.has_ready = true;
            task.first_ready = t;
          }
        }
        break;
      }
      case EventKind::kTaskDispatch: {
        const auto& e = std::get<TaskDispatchEvent>(event.payload);
        JobAcc* found = Submitted(e.job);
        if (found == nullptr) {
          break;
        }
        JobAcc& job = *found;
        TaskAttemptSpan span;
        span.job = e.job;
        span.stage = e.stage;
        span.task = e.task;
        span.dispatch_seconds = t;
        span.end_seconds = t;
        span.spare = e.spare;
        span.speculative = e.speculative;
        span.ready_seconds = t;  // speculative copies never waited in the queue
        TaskAcc& task = job.Task(e.task);
        if (!e.speculative && task.pending_head != kNone) {
          const ReadyNode& node = job.ready_nodes[task.pending_head];
          span.ready_seconds = node.time;
          task.pending_head = node.next;
          if (task.pending_head == kNone) {
            task.pending_tail = kNone;
          }
        }
        const auto index = static_cast<uint32_t>(job.spans.size());
        job.links.push_back({task.open_top, task.last_attempt});
        task.open_top = index;
        task.last_attempt = index;
        job.spans.push_back(span);
        break;
      }
      case EventKind::kTaskComplete: {
        const auto& e = std::get<TaskCompleteEvent>(event.payload);
        JobAcc* found = Submitted(e.job);
        if (found == nullptr) {
          break;
        }
        JobAcc& job = *found;
        TaskAcc& task = job.Task(e.task);
        // The winner is the most recent open attempt whose speculative flag matches
        // (the spare flag is mutated by promote/demote, so it cannot identify
        // attempts), else the most recent open one. Every other open copy was
        // cancelled by the simulator the moment the winner finished: close them as
        // superseded.
        uint32_t winner = task.open_top;
        for (uint32_t i = task.open_top; i != kNone; i = job.links[i].below) {
          if (job.spans[i].speculative == e.speculative) {
            winner = i;
            break;
          }
        }
        for (uint32_t i = task.open_top; i != kNone; i = job.links[i].below) {
          TaskAttemptSpan& span = job.spans[i];
          span.end_seconds = t;
          span.outcome = i == winner ? TaskAttemptSpan::Outcome::kCompleted
                                     : TaskAttemptSpan::Outcome::kSuperseded;
        }
        task.open_top = kNone;
        task.pending_head = kNone;  // a requeued copy that never re-dispatched
        task.pending_tail = kNone;
        if (!task.has_completion) {
          task.has_completion = true;
          task.completion = t;
        }
        break;
      }
      case EventKind::kTaskKilled: {
        const auto& e = std::get<TaskKilledEvent>(event.payload);
        JobAcc* found = Submitted(e.job);
        if (found == nullptr) {
          break;
        }
        JobAcc& job = *found;
        TaskAcc* task = job.FindTask(e.task);
        if (task == nullptr || task->open_top == kNone) {
          break;
        }
        // Close the most recently dispatched open copy: unambiguous when only one
        // copy runs (requeued kills), and correct for spare eviction, which always
        // reclaims the newest spare.
        const uint32_t index = task->open_top;
        task->open_top = job.links[index].below;
        TaskAttemptSpan& span = job.spans[index];
        span.end_seconds = t;
        span.outcome = TaskAttemptSpan::Outcome::kKilled;
        span.kill_reason = e.reason;
        break;
      }
      case EventKind::kControlTick: {
        const auto& e = std::get<ControlTickEvent>(event.payload);
        JobAcc* job = Submitted(e.job);
        if (job == nullptr) {
          break;
        }
        bool lag = static_cast<double>(e.granted_tokens) + 0.5 < e.raw_allocation;
        AddControlPoint(job->control, t, lag, /*has_lag=*/true, /*degraded=*/false);
        job->ticks.push_back({e.elapsed_seconds, e.progress, e.predicted_remaining_seconds});
        break;
      }
      case EventKind::kDegradedDecision: {
        const auto& e = std::get<DegradedDecisionEvent>(event.payload);
        if (JobAcc* job = Submitted(e.job)) {
          AddControlPoint(job->control, t, false, /*has_lag=*/false, /*degraded=*/true);
        }
        break;
      }
      case EventKind::kFaultInjected: {
        const auto& e = std::get<FaultInjectedEvent>(event.payload);
        if (e.fault != FaultKind::kControlBlackout) {
          break;
        }
        // A blackout suppresses ticks, so there is no ControlTickEvent to hang the
        // state on; mark every affected job degraded from the symptom time.
        for (JobAcc& job : jobs_) {
          if (e.job == -1 || e.job == job.job) {
            AddControlPoint(job.control, t, false, /*has_lag=*/false, /*degraded=*/true);
          }
        }
        break;
      }
      default:
        break;  // cache traffic, lookups, machine events: not span-bearing
    }
  }

  // Ends the current run segment: finalizes every open job and resets scan state.
  void FlushRun() {
    if (!jobs_.empty()) {
      for (JobAcc& job : jobs_) {
        report_.jobs.push_back(FinalizeJob(job));
      }
      ++report_.runs;
    }
    jobs_.clear();
    last_time_ = -1e300;
  }

  JobPostmortem FinalizeJob(JobAcc& job) {
    JobPostmortem out;
    out.run_index = report_.runs;
    out.job = job.job;
    out.finished = job.finished;
    out.submit_seconds = job.submit;
    out.completion_seconds = job.completion_elapsed;
    // Anything still open when the trace ended stays visible as unresolved.
    for (const TaskAcc& task : job.tasks) {
      for (uint32_t i = task.open_top; i != kNone; i = job.links[i].below) {
        job.spans[i].end_seconds = std::max(job.spans[i].dispatch_seconds, last_time_);
        job.spans[i].outcome = TaskAttemptSpan::Outcome::kUnresolved;
      }
    }
    if (job.finished) {
      AttributeBudget(job, out);
      for (const TickSample& tick : job.ticks) {
        double realized = job.completion_elapsed - tick.elapsed;
        calibration_samples_.push_back({tick.progress, tick.predicted - realized});
      }
    }
    out.spans = std::move(job.spans);
    return out;
  }

  void AttributeBudget(JobAcc& job, JobPostmortem& out) {
    // Completion times sorted by (time, task id): the first entry at a time is the
    // smallest task id completing then, the task an exact-time collision resolves
    // to (any choice preserves the tiling invariant; this one is deterministic).
    std::vector<Completion> by_time;
    for (uint32_t slot = 0; slot < job.tasks.size(); ++slot) {
      const TaskAcc& task = job.tasks[slot];
      if (task.has_completion) {
        by_time.push_back({task.completion, task.task, slot});
      }
    }
    std::sort(by_time.begin(), by_time.end(), [](const Completion& a, const Completion& b) {
      return a.time < b.time || (a.time == b.time && a.task < b.task);
    });
    auto completed_at = [&by_time](double t) -> const Completion* {
      auto it = std::lower_bound(by_time.begin(), by_time.end(), t,
                                 [](const Completion& c, double v) { return c.time < v; });
      return it != by_time.end() && it->time == t ? &*it : nullptr;
    };
    // Walk the realized critical path backwards from the task that completed at
    // the finish instant. A task's first ready time is exactly its enabling
    // predecessor's completion time (DrainReady runs inside OnTaskComplete at the
    // same simulated instant), so the walk needs only exact double equality.
    const Completion* cur = completed_at(job.finish);
    if (cur == nullptr && !by_time.empty()) {
      cur = completed_at(by_time.back().time);
    }
    double path_start = job.finish;
    while (cur != nullptr && cur->task >= 0 && !job.tasks[cur->slot].on_path) {
      TaskAcc& task = job.tasks[cur->slot];
      task.on_path = true;
      out.critical_path_tasks.push_back(task.task);
      double ready = task.has_ready ? task.first_ready : job.submit;
      AttributeInterval(job, task, ready, task.completion, out.budget);
      path_start = ready;
      if (ready <= job.submit) {
        break;
      }
      cur = completed_at(ready);
    }
    std::reverse(out.critical_path_tasks.begin(), out.critical_path_tasks.end());
    // If the chain broke above the submit time (possible only via exact-time
    // collisions), the uncovered prefix is still waiting time: attribute it so the
    // components always tile [submit, finish].
    AddQueueSpan(out.budget, job.control, job.submit, path_start);
    out.attribution_residual_seconds = out.budget.Total() - job.completion_elapsed;
  }

  // Partitions one path task's interval [ready, done] by what was happening to the
  // task at each instant. Precedence where attempts overlap: the winning attempt
  // counts as exec; killed attempts as rework (eviction before failure); cancelled
  // duplicates as speculation overlap; otherwise the task was waiting.
  void AttributeInterval(const JobAcc& job, const TaskAcc& task, double ready, double done,
                         LatencyBudget& budget) {
    if (done <= ready) {
      return;
    }
    std::vector<const TaskAttemptSpan*> spans;
    for (uint32_t i = task.last_attempt; i != kNone; i = job.links[i].earlier) {
      spans.push_back(&job.spans[i]);
    }
    std::vector<double> cuts;
    cuts.push_back(ready);
    cuts.push_back(done);
    for (const TaskAttemptSpan* s : spans) {
      if (s->dispatch_seconds > ready && s->dispatch_seconds < done) {
        cuts.push_back(s->dispatch_seconds);
      }
      if (s->end_seconds > ready && s->end_seconds < done) {
        cuts.push_back(s->end_seconds);
      }
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      double a = cuts[i];
      double b = cuts[i + 1];
      int best = 5;  // 0 exec, 1 evict, 2 fail, 3 spec overlap, 5 waiting
      for (const TaskAttemptSpan* s : spans) {
        if (s->dispatch_seconds > a || s->end_seconds < b) {
          continue;  // attempt not running across [a, b)
        }
        int rank = 5;
        switch (s->outcome) {
          case TaskAttemptSpan::Outcome::kCompleted:
            rank = 0;
            break;
          case TaskAttemptSpan::Outcome::kKilled:
            rank = s->kill_reason == KillReason::kSpareEviction ? 1 : 2;
            break;
          case TaskAttemptSpan::Outcome::kSuperseded:
          case TaskAttemptSpan::Outcome::kUnresolved:
            rank = 3;
            break;
        }
        best = std::min(best, rank);
      }
      double len = b - a;
      switch (best) {
        case 0:
          budget.exec += len;
          break;
        case 1:
          budget.eviction_rework += len;
          break;
        case 2:
          budget.failure_rework += len;
          break;
        case 3:
          budget.speculation_overlap += len;
          break;
        default:
          AddQueueSpan(budget, job.control, a, b);
          break;
      }
    }
  }

  void BuildCalibration() {
    CalibrationReport& cal = report_.calibration;
    cal.samples = static_cast<int>(calibration_samples_.size());
    if (calibration_samples_.empty()) {
      return;
    }
    std::vector<double> abs_errors;
    abs_errors.reserve(calibration_samples_.size());
    double abs_sum = 0.0;
    for (const CalSample& s : calibration_samples_) {
      abs_errors.push_back(std::fabs(s.error));
      abs_sum += std::fabs(s.error);
    }
    std::sort(abs_errors.begin(), abs_errors.end());
    cal.mean_abs_error = abs_sum / static_cast<double>(abs_errors.size());
    cal.p50_abs_error = Quantile(abs_errors, 0.5);
    int n = std::max(1, options_.progress_buckets);
    std::vector<std::vector<double>> errors_by_bucket(static_cast<size_t>(n));
    std::vector<double> sums(static_cast<size_t>(n), 0.0);
    for (const CalSample& s : calibration_samples_) {
      double p = std::clamp(s.progress, 0.0, 1.0);
      auto idx = static_cast<size_t>(std::min(n - 1, static_cast<int>(p * n)));
      errors_by_bucket[idx].push_back(s.error);
      sums[idx] += s.error;
    }
    for (int b = 0; b < n; ++b) {
      std::vector<double>& errors = errors_by_bucket[static_cast<size_t>(b)];
      if (errors.empty()) {
        continue;
      }
      std::sort(errors.begin(), errors.end());
      CalibrationBucket bucket;
      bucket.progress_lo = static_cast<double>(b) / n;
      bucket.progress_hi = static_cast<double>(b + 1) / n;
      bucket.samples = static_cast<int>(errors.size());
      bucket.mean_error = sums[static_cast<size_t>(b)] / static_cast<double>(errors.size());
      bucket.p10_error = Quantile(errors, 0.1);
      bucket.p50_error = Quantile(errors, 0.5);
      bucket.p90_error = Quantile(errors, 0.9);
      cal.buckets.push_back(bucket);
    }
  }

  void BuildAggregate() {
    report_.deadline_seconds = options_.deadline_seconds;
    for (const JobPostmortem& job : report_.jobs) {
      if (!job.finished) {
        continue;
      }
      LatencyBudget& t = report_.total_budget;
      t.queue += job.budget.queue;
      t.control_lag += job.budget.control_lag;
      t.degraded += job.budget.degraded;
      t.exec += job.budget.exec;
      t.eviction_rework += job.budget.eviction_rework;
      t.failure_rework += job.budget.failure_rework;
      t.speculation_overlap += job.budget.speculation_overlap;
      if (options_.deadline_seconds >= 0.0) {
        if (job.completion_seconds > options_.deadline_seconds) {
          ++report_.misses;
        } else {
          ++report_.met;
        }
      }
    }
  }

  PostmortemOptions options_;
  PostmortemReport report_;
  std::vector<JobAcc> jobs_;  // the current run's jobs, by id
  double last_time_ = -1e300;
  std::vector<CalSample> calibration_samples_;
};

// Blame = the non-exec components, largest first; exec is useful work, not blame.
std::vector<BudgetComponent> BlameRanking(const LatencyBudget& budget, size_t top) {
  std::vector<BudgetComponent> out;
  for (const BudgetComponent& c : BudgetComponents(budget)) {
    if (std::string(c.name) != "exec" && c.seconds > 0.0) {
      out.push_back(c);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const BudgetComponent& a, const BudgetComponent& b) {
                     return a.seconds > b.seconds;
                   });
  if (out.size() > top) {
    out.resize(top);
  }
  return out;
}

void WriteBudgetJson(std::ostream& os, const LatencyBudget& budget) {
  os << "{";
  bool first = true;
  for (const BudgetComponent& c : BudgetComponents(budget)) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "\"" << c.name << "\":" << JsonNumber(c.seconds);
  }
  os << "}";
}

// The top-3 blame as `[{"component": ..., "seconds": ...}, ...]`.
void WriteBlameJson(std::ostream& os, const LatencyBudget& budget) {
  os << "[";
  const char* separator = "";
  for (const BudgetComponent& c : BlameRanking(budget, 3)) {
    os << separator << "{\"component\": \"" << c.name
       << "\", \"seconds\": " << JsonNumber(c.seconds) << "}";
    separator = ", ";
  }
  os << "]";
}

}  // namespace

PostmortemReport BuildPostmortem(const std::vector<TraceEvent>& events,
                                 const PostmortemOptions& options) {
  prof::Scope scope("postmortem");
  Analyzer analyzer(options);
  for (const TraceEvent& event : events) {
    analyzer.Consume(event);
  }
  return analyzer.Finish();
}

void WritePostmortemJson(std::ostream& os, const PostmortemReport& report) {
  os << "{\n  \"runs\": " << report.runs << ",\n  \"events\": " << report.events;
  if (report.deadline_seconds >= 0.0) {
    os << ",\n  \"deadline_seconds\": " << JsonNumber(report.deadline_seconds)
       << ",\n  \"misses\": " << report.misses << ",\n  \"met\": " << report.met;
  }
  os << ",\n  \"jobs\": [";
  bool first_job = true;
  for (const JobPostmortem& job : report.jobs) {
    if (!first_job) {
      os << ",";
    }
    first_job = false;
    os << "\n    {\"run\": " << job.run_index << ", \"job\": " << job.job
       << ", \"finished\": " << (job.finished ? "true" : "false")
       << ", \"submit_seconds\": " << JsonNumber(job.submit_seconds)
       << ", \"completion_seconds\": " << JsonNumber(job.completion_seconds);
    if (report.deadline_seconds >= 0.0 && job.finished) {
      os << ", \"verdict\": \""
         << (job.completion_seconds > report.deadline_seconds ? "miss" : "met") << "\"";
    }
    os << ",\n     \"budget\": ";
    WriteBudgetJson(os, job.budget);
    os << ",\n     \"residual_seconds\": " << JsonNumber(job.attribution_residual_seconds);
    int outcomes[4] = {0, 0, 0, 0};
    for (const TaskAttemptSpan& span : job.spans) {
      ++outcomes[static_cast<int>(span.outcome)];
    }
    os << ",\n     \"attempts\": " << job.spans.size() << ", \"completed\": " << outcomes[0]
       << ", \"killed\": " << outcomes[1] << ", \"superseded\": " << outcomes[2]
       << ", \"unresolved\": " << outcomes[3];
    os << ",\n     \"critical_path_len\": " << job.critical_path_tasks.size();
    os << ",\n     \"blame\": ";
    WriteBlameJson(os, job.budget);
    os << "}";
  }
  os << "\n  ],\n  \"aggregate\": {\"budget\": ";
  WriteBudgetJson(os, report.total_budget);
  os << ", \"blame\": ";
  WriteBlameJson(os, report.total_budget);
  os << "},\n  \"calibration\": {\"samples\": " << report.calibration.samples
     << ", \"mean_abs_error_seconds\": " << JsonNumber(report.calibration.mean_abs_error)
     << ", \"p50_abs_error_seconds\": " << JsonNumber(report.calibration.p50_abs_error)
     << ",\n    \"buckets\": [";
  bool first_bucket = true;
  for (const CalibrationBucket& b : report.calibration.buckets) {
    if (!first_bucket) {
      os << ",";
    }
    first_bucket = false;
    os << "\n      {\"progress_lo\": " << JsonNumber(b.progress_lo)
       << ", \"progress_hi\": " << JsonNumber(b.progress_hi) << ", \"samples\": " << b.samples
       << ", \"mean\": " << JsonNumber(b.mean_error) << ", \"p10\": " << JsonNumber(b.p10_error)
       << ", \"p50\": " << JsonNumber(b.p50_error) << ", \"p90\": " << JsonNumber(b.p90_error)
       << "}";
  }
  os << "\n    ]}\n}\n";
}

void PrintPostmortem(std::ostream& os, const PostmortemReport& report) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "Postmortem: %d run(s), %zu job(s), %d events\n",
                report.runs, report.jobs.size(), report.events);
  os << buf;
  if (report.deadline_seconds >= 0.0) {
    std::snprintf(buf, sizeof(buf), "Deadline %.1fs: %d miss / %d met\n",
                  report.deadline_seconds, report.misses, report.met);
    os << buf;
  }
  os << "\n"
     << "run job   completion verdict     queue  ctl_lag degraded     exec  evct_rw"
        "  fail_rw  spc_ovl residual\n";
  for (const JobPostmortem& job : report.jobs) {
    const char* verdict = "-";
    if (!job.finished) {
      verdict = "unfinished";
    } else if (report.deadline_seconds >= 0.0) {
      verdict = job.completion_seconds > report.deadline_seconds ? "MISS" : "met";
    }
    std::snprintf(buf, sizeof(buf),
                  "%3d %3d %12.2f %-10s %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %8.1e\n",
                  job.run_index, job.job, job.completion_seconds, verdict, job.budget.queue,
                  job.budget.control_lag, job.budget.degraded, job.budget.exec,
                  job.budget.eviction_rework, job.budget.failure_rework,
                  job.budget.speculation_overlap, job.attribution_residual_seconds);
    os << buf;
  }
  std::vector<BudgetComponent> blame = BlameRanking(report.total_budget, 3);
  if (!blame.empty()) {
    double total = report.total_budget.Total();
    os << "\nTop blame:";
    int rank = 1;
    for (const BudgetComponent& c : blame) {
      std::snprintf(buf, sizeof(buf), " %d. %s %.1fs (%.1f%%)", rank++, c.name, c.seconds,
                    total > 0.0 ? 100.0 * c.seconds / total : 0.0);
      os << buf;
    }
    os << "\n";
  }
  if (report.calibration.samples > 0) {
    os << "\nPredictor calibration (signed error = predicted - realized remaining, s):\n"
       << "  progress      n     p10     p50     p90    mean\n";
    for (const CalibrationBucket& b : report.calibration.buckets) {
      std::snprintf(buf, sizeof(buf), "  [%.1f,%.1f) %5d %7.1f %7.1f %7.1f %7.1f\n",
                    b.progress_lo, b.progress_hi, b.samples, b.p10_error, b.p50_error,
                    b.p90_error, b.mean_error);
      os << buf;
    }
    std::snprintf(buf, sizeof(buf), "  overall: %d samples, mean|err| %.2fs, p50|err| %.2fs\n",
                  report.calibration.samples, report.calibration.mean_abs_error,
                  report.calibration.p50_abs_error);
    os << buf;
  }
}

}  // namespace jockey
