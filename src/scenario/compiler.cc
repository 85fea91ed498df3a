#include "src/scenario/compiler.h"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "src/fault/chaos_matrix.h"
#include "src/util/rng.h"

namespace jockey {
namespace {

// Resolves `deadline:` against the trained job.
double ResolveDeadline(const DeadlineSpec& deadline, const CatalogJob& job) {
  switch (deadline.kind) {
    case DeadlineSpec::Kind::kTight:
      return job.deadline_short_seconds;
    case DeadlineSpec::Kind::kLong:
      return job.deadline_long_seconds;
    case DeadlineSpec::Kind::kMinutes:
      return deadline.minutes * 60.0;
  }
  return job.deadline_short_seconds;
}

// Builds the episode's fault plan. Class plans are the chaos arm construction:
// windows scaled to the episode deadline and the reference fleet, noise stream
// seeded with ChaosPlanSeed(episode seed). File and inline plans are explicit data
// and keep their own seed.
std::shared_ptr<const FaultPlan> ResolveFaults(const FaultSpec& faults, double deadline_seconds,
                                               uint64_t episode_seed,
                                               const std::string& base_dir) {
  switch (faults.kind) {
    case FaultSpec::Kind::kClass: {
      ClusterConfig reference = DefaultExperimentCluster(0);
      std::optional<FaultPlan> plan =
          BuildChaosClassPlan(faults.class_name, deadline_seconds, reference.num_machines);
      if (!plan.has_value()) {
        throw std::invalid_argument("unknown fault class \"" + faults.class_name + "\"");
      }
      plan->set_seed(ChaosPlanSeed(episode_seed));
      return std::make_shared<const FaultPlan>(std::move(*plan));
    }
    case FaultSpec::Kind::kFile: {
      std::string path = faults.plan_path;
      if (!base_dir.empty() && !path.empty() && path[0] != '/') {
        path = base_dir + "/" + path;
      }
      std::ifstream in(path);
      if (!in) {
        throw std::invalid_argument("cannot read fault plan " + path);
      }
      std::string error;
      std::optional<FaultPlan> plan = FaultPlan::Load(in, &error);
      if (!plan.has_value()) {
        throw std::invalid_argument("bad fault plan " + path + ": " + error);
      }
      return std::make_shared<const FaultPlan>(std::move(*plan));
    }
    case FaultSpec::Kind::kInline:
      return std::make_shared<const FaultPlan>(faults.inline_plan);
  }
  return nullptr;
}

// Resolves every per-episode option from the scenario defaults and the entry's
// overrides.
ExperimentOptions BuildOptions(const ScenarioSpec& spec, const WorkloadEntrySpec& entry,
                               const CatalogJob& job, double deadline_seconds,
                               uint64_t episode_seed, const ScenarioCompileOptions& compile) {
  ExperimentOptions options;
  options.deadline_seconds = deadline_seconds;
  options.policy = entry.policy.value_or(spec.policy);
  options.seed = episode_seed;
  options.input_scale = entry.input_scale.value_or(spec.input_scale.value_or(1.0));
  options.jitter_input = entry.jitter_input.value_or(spec.jitter_input);
  options.use_spare_tokens = spec.use_spare_tokens;
  if (spec.fixed_tokens.has_value()) {
    options.fixed_tokens = *spec.fixed_tokens;
  }
  const ControlSpec knobs = spec.control.value_or(ControlSpec{});
  knobs.ApplyTo(options);
  // A controller override is compiled only when something actually overrides the
  // trained config — the unset path must stay bit-identical to plain experiments.
  bool hardened = entry.hardened.value_or(spec.hardened);
  if (hardened || knobs.OverridesController()) {
    ControlLoopConfig control = job.trained->jockey->config().control;
    knobs.ApplyTo(control);
    control.enable_degraded_mode = hardened;
    options.control_override = control;
  }

  const std::optional<OverloadSpec>& overload =
      entry.overload.has_value() ? entry.overload : spec.overload;
  if (overload.has_value()) {
    options.overload =
        OverloadEpisode(overload->start_seconds, overload->duration_seconds,
                        overload->utilization);
  }
  const std::optional<DeadlineChangeSpec>& change =
      entry.deadline_change.has_value() ? entry.deadline_change : spec.deadline_change;
  if (change.has_value()) {
    double new_deadline = change->factor.has_value() ? deadline_seconds * *change->factor
                                                     : *change->minutes * 60.0;
    options.deadline_change = DeadlineChange(change->at_seconds, new_deadline);
  }
  const std::optional<FaultSpec>& faults = entry.faults.has_value() ? entry.faults : spec.faults;
  if (faults.has_value()) {
    options.fault_plan =
        ResolveFaults(*faults, deadline_seconds, episode_seed, compile.base_dir);
  }
  options.observer = compile.observer;
  options.capture_events = compile.capture_events;
  options.timeseries = compile.timeseries;
  return options;
}

}  // namespace

CompiledExperiment::CompiledExperiment(ExperimentSpec spec, std::shared_ptr<const TrainedJob> job)
    : spec_(std::move(spec)), job_(std::move(job)) {
  if (job_ == nullptr || job_->jockey == nullptr || job_->tmpl == nullptr) {
    throw std::invalid_argument("CompiledExperiment: missing trained job");
  }
  if (!(spec_.options.deadline_seconds > 0.0)) {
    throw std::invalid_argument("CompiledExperiment: deadline must be positive");
  }
  if (spec_.options.max_tokens < 1) {
    throw std::invalid_argument("CompiledExperiment: max_tokens must be >= 1");
  }
  if (spec_.options.policy == PolicyKind::kFixed && spec_.options.fixed_tokens < 1) {
    throw std::invalid_argument("CompiledExperiment: fixed policy needs fixed_tokens >= 1");
  }
  if (!(spec_.options.control_period_seconds > 0.0)) {
    throw std::invalid_argument("CompiledExperiment: control period must be positive");
  }
  if (spec_.options.control_override.has_value()) {
    // Max tokens is overwritten from options at run time; validate what will run.
    ControlLoopConfig effective = *spec_.options.control_override;
    effective.max_tokens = spec_.options.max_tokens;
    std::string error = ValidateControlLoopConfig(effective);
    if (!error.empty()) {
      throw std::invalid_argument("CompiledExperiment: " + error);
    }
  }
  if (spec_.options.fault_plan != nullptr) {
    std::string error = spec_.options.fault_plan->Validate();
    if (!error.empty()) {
      throw std::invalid_argument("CompiledExperiment: " + error);
    }
  }
}

CompiledScenario CompileScenario(const ScenarioSpec& spec, JobCatalog& catalog,
                                 const ScenarioCompileOptions& options) {
  CompiledScenario compiled;
  compiled.spec = spec;

  if (spec.phases.empty()) {
    // List style: every entry x its repeats, back to back. Seeds restart at the
    // entry's base seed, the way each chaos class restarts at first_seed.
    for (size_t ei = 0; ei < spec.workload.size(); ++ei) {
      const WorkloadEntrySpec& entry = spec.workload[ei];
      const CatalogJob& job = catalog.Resolve(entry.job);
      double deadline = ResolveDeadline(entry.deadline, job);
      uint64_t base_seed = entry.seed.value_or(spec.seed);
      int repeats = entry.repeats.value_or(spec.repeats);
      for (int i = 0; i < repeats; ++i) {
        uint64_t episode_seed = base_seed + static_cast<uint64_t>(i);
        ExperimentSpec episode;
        // Appended piece by piece: operator+ chains trip GCC 12's -Wrestrict at -O3.
        episode.label.append("w").append(std::to_string(ei)).append(".").append(job.name);
        episode.label.append("#").append(std::to_string(i));
        episode.job_name = job.name;
        episode.arrival_seconds = 0.0;
        episode.options = BuildOptions(spec, entry, job, deadline, episode_seed, options);
        compiled.episodes.emplace_back(std::move(episode), job.trained);
      }
    }
    return compiled;
  }

  // Phased style: walk the phase timeline, scheduling arrivals and cycling the
  // workload mix. Every episode runs under the phase's pinned background load.
  double phase_start = 0.0;
  size_t mix_index = 0;
  uint64_t episode_index = 0;
  for (size_t pi = 0; pi < spec.phases.size(); ++pi) {
    const PhaseSpec& phase = spec.phases[pi];
    double phase_end = phase_start + phase.duration_seconds;
    // Deterministic arrival stream per phase, independent of the episode seeds.
    Rng arrival_rng(Rng::CounterSeed(spec.seed, 0xA221u, static_cast<uint64_t>(pi)));
    double t = phase_start;
    while (t < phase_end) {
      const WorkloadEntrySpec& entry = spec.workload[mix_index % spec.workload.size()];
      ++mix_index;
      const CatalogJob& job = catalog.Resolve(entry.job);
      double deadline = ResolveDeadline(entry.deadline, job);
      uint64_t episode_seed = spec.seed + episode_index;
      ExperimentSpec episode;
      episode.label.append(phase.name).append(".").append(job.name).append("#");
      episode.label.append(std::to_string(episode_index));
      episode.job_name = job.name;
      episode.phase = phase.name;
      episode.arrival_seconds = t;
      episode.options = BuildOptions(spec, entry, job, deadline, episode_seed, options);
      if (phase.utilization.has_value()) {
        episode.options.background_utilization = *phase.utilization;
      }
      compiled.episodes.emplace_back(std::move(episode), job.trained);
      ++episode_index;
      t += phase.arrivals.kind == ArrivalSpec::Kind::kPeriodic
               ? phase.arrivals.value_seconds
               : arrival_rng.Exponential(phase.arrivals.value_seconds);
    }
    phase_start = phase_end;
  }
  return compiled;
}

}  // namespace jockey
