// Jockey's offline job simulator (Section 4.1).
//
// "The job simulator takes as input these statistics, along with the job's algebra
// (list of stages, tasks and their dependencies), and simulates events in the
// execution of the job. Events include allocating tasks to machines, restarting
// failed tasks and scheduling tasks as their inputs become available. This simulator
// captures important features of the job's performance such as outliers ... and
// barriers ..., but does not simulate all aspects of the system, such as input size
// variation and the scheduling of duplicate tasks."
//
// This is deliberately a *simpler* model than the cluster simulator in src/cluster/:
// no spare tokens, no eviction, no contention, no machine heterogeneity. The gap
// between the two is the model error Jockey's control loop must absorb.

#ifndef SRC_SIM_JOB_SIMULATOR_H_
#define SRC_SIM_JOB_SIMULATOR_H_

#include <functional>
#include <vector>

#include "src/dag/dependency_tracker.h"
#include "src/dag/job_graph.h"
#include "src/dag/profile.h"
#include "src/util/event_queue.h"
#include "src/util/rng.h"

namespace jockey {

struct JobSimulatorConfig {
  // Whether to inject task failures from the profile's per-stage failure probability.
  bool inject_failures = true;
  // Per-task scheduling/initialization overhead is sampled from the profile's stage
  // queueing distribution and capped here (large queueing in the training run was
  // caused by token contention, which the simulator models through the allocation).
  double init_latency_cap_seconds = 8.0;
  // Period at which the progress callback fires.
  double sample_period_seconds = 15.0;
};

// Result of one simulated execution.
struct SimRunResult {
  double completion_seconds = 0.0;
  // First task start and last task end per stage, for minstage-style indicators.
  std::vector<double> stage_first_start;
  std::vector<double> stage_last_end;
};

// Simulates executions of one job at a fixed token allocation.
//
// Construction precomputes the task dependency structure; Run() can then be invoked
// many times cheaply (the builder performs hundreds of Monte Carlo runs per job).
class JobSimulator {
 public:
  // Called every sample_period with the simulation time and the per-stage fraction of
  // completed tasks; this is how the C(p, a) builder observes progress.
  using ProgressCallback =
      std::function<void(SimTime now, const std::vector<double>& frac_complete)>;

  JobSimulator(const JobGraph& graph, const JobProfile& profile,
               JobSimulatorConfig config = JobSimulatorConfig());

  // Simulates one execution with `allocation` tokens (concurrent task slots).
  // Requires allocation >= 1. Deterministic for a fixed rng state.
  SimRunResult Run(int allocation, Rng& rng, const ProgressCallback& on_progress = nullptr) const;

  const JobGraph& graph() const { return *graph_; }
  const JobProfile& profile() const { return *profile_; }

 private:
  const JobGraph* graph_;
  const JobProfile* profile_;
  JobSimulatorConfig config_;
  DependencyTracker tracker_;
};

}  // namespace jockey

#endif  // SRC_SIM_JOB_SIMULATOR_H_
