// Shared experiment harness for the evaluation benches (Section 5.1's methodology).
//
// A TrainedJob bundles a generated job with the trace of one training execution on
// the cluster and the Jockey model built from it ("We use a single production run of
// these jobs as input to the simulator to pre-compute the completion time
// distribution"). RunExperiment() then executes the job on a fresh shared cluster
// under one of the four policies and reports the paper's metrics: deadline met?, how
// early/late relative to the deadline, and the fraction of the requested allocation
// above the oracle allocation O(T, d) = ceil(T / d).

#ifndef SRC_CORE_EXPERIMENT_H_
#define SRC_CORE_EXPERIMENT_H_

#include <memory>
#include <optional>
#include <string>

#include "src/cluster/cluster_simulator.h"
#include "src/core/jockey.h"
#include "src/fault/fault_plan.h"
#include "src/core/policies.h"
#include "src/obs/observer.h"
#include "src/workload/job_template.h"

namespace jockey {

enum class PolicyKind {
  kJockey,          // simulator table + dynamic adaptation
  kJockeyNoAdapt,   // a-priori allocation from the simulator table, fixed
  kJockeyNoSim,     // Amdahl model + dynamic adaptation
  kMaxAllocation,   // the full experiment slice, fixed
  kFixed,           // caller-specified fixed tokens (used by Fig 8's measurement runs)
};

// Human-readable name, as printed in the paper's tables ("Jockey w/o simulator").
const char* PolicyName(PolicyKind policy);
// Stable wire token ("jockey_no_sim") — what scenario files, CLI flags and JSON
// output use. ParsePolicyKind is its inverse and accepts only wire tokens, so the
// spelling cannot drift between the parsers that share it.
const char* PolicyId(PolicyKind policy);
std::optional<PolicyKind> ParsePolicyKind(const std::string& token);

// Cluster configuration used by the evaluation experiments: ~80% average
// utilization, spare-token redistribution, occasional machine failures.
ClusterConfig DefaultExperimentCluster(uint64_t seed);

struct TrainingOptions {
  int guaranteed_tokens = 40;
  uint64_t seed = 900;
  JockeyConfig jockey;
  // The training execution runs on a cluster with this configuration (a typical day:
  // mean utilization at the default, no overload episodes).
  ClusterConfig cluster = DefaultExperimentCluster(900);
};

struct TrainedJob {
  std::shared_ptr<const JobTemplate> tmpl;
  RunTrace training_trace;
  std::shared_ptr<const Jockey> jockey;

  const std::string& name() const { return tmpl->name(); }
};

// Executes one training run of `tmpl` on the cluster and builds the Jockey model
// from its trace.
TrainedJob TrainJob(JobTemplate tmpl, const TrainingOptions& options = TrainingOptions());

// Mid-run SLO change (Fig 7): at `at_seconds` of elapsed time the deadline becomes
// `new_deadline_seconds`. Constructed values are always valid — the constructor
// throws std::invalid_argument on a negative change time or non-positive deadline,
// the same fail-at-construction convention ClusterSimulator and ControlLoop use.
// "No change" is spelled std::nullopt at the use site, not a sentinel.
struct DeadlineChange {
  DeadlineChange(double at_seconds, double new_deadline_seconds);

  double at_seconds;
  double new_deadline_seconds;
};

// Injected cluster overload (Fig 6(a)): background demand forced to `utilization`
// during [start, start + duration). Validated at construction like DeadlineChange.
struct OverloadEpisode {
  OverloadEpisode(double start_seconds, double duration_seconds, double utilization);

  double start_seconds;
  double duration_seconds;
  double utilization;
};

struct ExperimentOptions {
  double deadline_seconds = 3600.0;
  PolicyKind policy = PolicyKind::kJockey;
  uint64_t seed = 1;
  // Scales task durations; models a run whose input grew relative to training.
  double input_scale = 1.0;
  // When true, an additional seeded log-normal jitter multiplies input_scale; this is
  // Section 2.3's observation that input sizes vary across runs of recurring jobs
  // (and Table 3's runs needing 1.5-2x the training work). Set false for experiments
  // that pin the scale exactly.
  bool jitter_input = true;
  double control_period_seconds = 60.0;
  int max_tokens = 100;
  int fixed_tokens = 10;  // used only by PolicyKind::kFixed
  // When > 0, adaptive policies start from this allocation instead of a cold scan
  // (ControlLoopConfig::warm_start_tokens), and the submission's initial grant is
  // seeded with it too. Recurring runs derive it from the previous run's postmortem
  // via WarmStartAllocation (decision_cache.h). 0 keeps the historical cold start.
  int warm_start_tokens = 0;
  bool use_spare_tokens = true;
  std::optional<DeadlineChange> deadline_change;
  std::optional<OverloadEpisode> overload;
  // Pins the run's mean background demand instead of drawing the per-seed cluster
  // "weather". Scenario phases use this to shape load (ramp/burst/diurnal); unset
  // keeps the historical weather draw, bit-for-bit.
  std::optional<double> background_utilization;
  // Overrides the trained control config (sensitivity experiments). The completion
  // table is unaffected — it depends only on the indicator and the model config.
  std::optional<ControlLoopConfig> control_override;
  // Observability attachment: forwarded to the cluster simulator (scheduler events)
  // and, for adaptive policies, the controller (control-decision events). Detached by
  // default, so instrumented code costs one branch per emission site.
  Observer observer;
  // Fault schedule (fault_plan.h): when set and non-empty, an injector built from it
  // is attached to the cluster and, for adaptive policies, the controller. Shared
  // ownership — the options struct (and anything compiled from it) keeps the plan
  // alive, so data-driven callers can build options and let their plan go out of
  // scope. Whether the controller *reacts* is governed separately by
  // ControlLoopConfig::enable_degraded_mode (via control_override) — the chaos sweep
  // runs the same plan against both settings.
  std::shared_ptr<const FaultPlan> fault_plan;
  // Time-series recorder (obs/timeseries/timeseries.h): when set, RunExperiment
  // opens a new run on it (BeginRun with this run's effective deadline) and attaches
  // it to the cluster, which then feeds it per-control-tick job samples, cluster
  // utilization samples and the job-finish mark. Non-owning; nullptr (the default)
  // records nothing and changes no simulation result.
  TimeSeriesRecorder* timeseries = nullptr;
  // When true, every trace event of the run is returned in ExperimentResult::events
  // (in addition to whatever `observer` sink is attached) — the input the postmortem
  // analyzer (obs/analysis/postmortem.h) wants without round-tripping JSONL.
  bool capture_events = false;
};

struct ExperimentResult {
  std::string job_name;
  PolicyKind policy = PolicyKind::kJockey;
  double deadline_seconds = 0.0;
  double completion_seconds = 0.0;
  bool met_deadline = false;
  // completion / deadline; < 1 met the SLO, > 1 missed it (the x-axis of Fig 5).
  double latency_ratio = 0.0;
  // Aggregate CPU seconds actually consumed by the run (T in O(T, d)).
  double total_work_seconds = 0.0;
  int oracle_tokens = 0;
  // Integral of the guaranteed-token request, token-seconds.
  double requested_token_seconds = 0.0;
  // max(0, requested - oracle) / requested; the x-axis of Fig 4.
  double frac_above_oracle = 0.0;
  ClusterRunResult run;
  // Jockey-family policies: the per-tick control log (progress, T_t, allocations).
  std::vector<ControlTickLog> control_log;
  // The run's full trace, filled when ExperimentOptions::capture_events is true
  // (empty otherwise).
  std::vector<TraceEvent> events;
};

ExperimentResult RunExperiment(const TrainedJob& job, const ExperimentOptions& options);

// Deadline derivation following Section 2.2 / 5.1: "we set the target deadline based
// on the length of the critical path". The short deadline leaves headroom above the
// trained critical path and the observed training completion; the long deadline is
// twice the short one, rounded up to whole minutes.
double SuggestDeadlineSeconds(const TrainedJob& job, bool tight);

}  // namespace jockey

#endif  // SRC_CORE_EXPERIMENT_H_
