#include "src/cluster/cluster_simulator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/fault/fault_injector.h"
#include "src/obs/prof/profiler.h"
#include "src/obs/timeseries/timeseries.h"

namespace jockey {

namespace {

// The per-job attempt lists stay ascending in arena order, i.e. in start order.
struct StartOrder {
  const AttemptArena& arena;
  bool operator()(uint32_t a, uint32_t b) const { return arena.order(a) < arena.order(b); }
};

void InsertInStartOrder(const AttemptArena& arena, std::vector<uint32_t>& list,
                        uint32_t slot) {
  list.insert(std::upper_bound(list.begin(), list.end(), slot, StartOrder{arena}), slot);
}

void EraseInStartOrder(const AttemptArena& arena, std::vector<uint32_t>& list,
                       uint32_t slot) {
  auto at = std::lower_bound(list.begin(), list.end(), slot, StartOrder{arena});
  assert(at != list.end() && *at == slot);
  list.erase(at);
}

}  // namespace

std::string ValidateClusterConfig(const ClusterConfig& config) {
  if (config.num_machines <= 0) return "num_machines must be > 0";
  if (config.slots_per_machine <= 0) return "slots_per_machine must be > 0";
  if (config.machine_speed_sigma < 0.0) return "machine_speed_sigma must be >= 0";
  if (config.contention_threshold < 0.0) return "contention_threshold must be >= 0";
  if (config.contention_slope < 0.0) return "contention_slope must be >= 0";
  if (config.machine_failure_rate_per_hour < 0.0) {
    return "machine_failure_rate_per_hour must be >= 0";
  }
  if (config.machine_recovery_seconds <= 0.0) {
    return "machine_recovery_seconds must be > 0";
  }
  if (config.scheduling_delay_seconds < 0.0) {
    return "scheduling_delay_seconds must be >= 0";
  }
  if (config.speculation_slowdown < 1.0) return "speculation_slowdown must be >= 1";
  if (config.speculation_min_samples < 1) return "speculation_min_samples must be >= 1";
  if (config.speculation_check_period_seconds <= 0.0) {
    return "speculation_check_period_seconds must be > 0";
  }
  if (config.speculation_max_per_task < 0) return "speculation_max_per_task must be >= 0";
  if (config.superhigh_pressure_factor < 1.0) {
    return "superhigh_pressure_factor must be >= 1";
  }
  const BackgroundLoadParams& bg = config.background;
  if (bg.mean_utilization < 0.0 || bg.mean_utilization > 1.5) {
    return "background.mean_utilization must be in [0, 1.5]";
  }
  if (bg.volatility < 0.0) return "background.volatility must be >= 0";
  if (bg.reversion < 0.0) return "background.reversion must be >= 0";
  if (bg.update_period_seconds <= 0.0) {
    return "background.update_period_seconds must be > 0";
  }
  if (bg.min_utilization < 0.0 || bg.max_utilization > 1.5 ||
      bg.min_utilization > bg.max_utilization) {
    return "background.min/max_utilization must satisfy 0 <= min <= max <= 1.5";
  }
  if (bg.overload_rate_per_hour < 0.0) {
    return "background.overload_rate_per_hour must be >= 0";
  }
  if (bg.overload_duration_seconds < 0.0) {
    return "background.overload_duration_seconds must be >= 0";
  }
  return std::string();
}

ClusterSimulator::ClusterSimulator(const ClusterConfig& config)
    : config_(config),
      rng_(config.seed),
      background_(config.background, Rng(config.seed).Fork()) {
  const std::string problem = ValidateClusterConfig(config);
  if (!problem.empty()) {
    throw std::invalid_argument("ClusterConfig: " + problem);
  }
  machines_.resize(static_cast<size_t>(config_.num_machines));
  up_machines_ = config_.num_machines;
  for (auto& m : machines_) {
    m.speed = rng_.LogNormal(0.0, config_.machine_speed_sigma);
  }
}

ClusterSimulator::~ClusterSimulator() = default;

int ClusterSimulator::SubmitJob(const JobTemplate& job, const JobSubmission& opts) {
  int job_id = static_cast<int>(jobs_.size());
  jobs_.emplace_back();
  JobState& state = jobs_.back();
  state.id = job_id;
  state.tmpl = &job;
  state.opts = opts;
  state.tracker = std::make_unique<DependencyTracker>(job.graph);
  state.rng = Rng(opts.seed);
  state.guaranteed_tokens = std::clamp(opts.guaranteed_tokens, 0, opts.max_guaranteed_tokens);
  state.records.resize(static_cast<size_t>(state.tracker->total_tasks()));
  state.ever_ready.assign(static_cast<size_t>(state.tracker->total_tasks()), false);
  state.stage_exec_stats.resize(static_cast<size_t>(job.graph.num_stages()));
  state.speculation_budget_used.assign(static_cast<size_t>(state.tracker->total_tasks()), 0);
  state.running_copies.assign(static_cast<size_t>(state.tracker->total_tasks()), 0);
  for (int t = 0; t < state.tracker->total_tasks(); ++t) {
    auto& rec = state.records[static_cast<size_t>(t)];
    rec.id.stage = state.tracker->StageOf(t);
    rec.id.index = state.tracker->IndexOf(t);
  }
  for (JobSet* set : {&live_, &rebalance_, &hungry_[0], &hungry_[1], &spare_takers_}) {
    set->Grow(job_id + 1);
  }
  state.result.trace.job_name = job.name();
  state.result.trace.submit_time = opts.submit_time;
  ++unfinished_jobs_;
  obs_.Emit(opts.submit_time, JobSubmitEvent{job_id, state.guaranteed_tokens});
  ++tallies_.jobs_submitted;
  SimEvent ev;
  ev.kind = SimEvent::Kind::kStartJob;
  ev.a = job_id;
  eq_.ScheduleAt(opts.submit_time, ev);
  return job_id;
}

void ClusterSimulator::Dispatch(const SimEvent& ev) {
  // One profiler region per dispatched event; disabled cost is a relaxed load and
  // a branch (ProfilerTest.DisabledScopesStayWithinTwoPercentOfAControlTick).
  prof::Scope dispatch_scope("sim_dispatch");
  switch (ev.kind) {
    case SimEvent::Kind::kStartJob:
      StartJob(ev.a);
      break;
    case SimEvent::Kind::kControlTick:
      ControlTick(ev.a);
      break;
    case SimEvent::Kind::kTaskEnd: {
      if (!arena_.Alive(ev.handle)) {
        break;  // stale: the attempt was already killed or superseded
      }
      if (ev.fails) {
        JobState& job = jobs_[static_cast<size_t>(ev.a)];
        ++job.result.task_failures;
        KillAttempt(job, ev.handle, KillReason::kTaskFailure);
        Reschedule();
      } else {
        OnTaskComplete(ev.a, ev.handle);
      }
      break;
    }
    case SimEvent::Kind::kMachineFailureTick:
      MachineFailureTick();
      break;
    case SimEvent::Kind::kMachineRecover:
      RecoverMachine(ev.a);
      if (unfinished_jobs_ > 0) {
        Reschedule();
      }
      break;
    case SimEvent::Kind::kBurstStart: {
      if (unfinished_jobs_ == 0) {
        break;
      }
      int killed = 0;
      int downed = 0;
      for (int machine = ev.a; machine < ev.b; ++machine) {
        if (FailMachine(machine, &killed)) {
          ++downed;
        }
      }
      if (downed > 0) {
        const FaultWindow& w =
            fault_injector_->plan().windows()[static_cast<size_t>(ev.handle)];
        obs_.Emit(eq_.now(),
                  FaultInjectedEvent{w.kind, static_cast<int>(ev.handle), -1, 0.0,
                                     static_cast<double>(downed),
                                     static_cast<double>(killed)});
        ++tallies_.fault_machine_bursts;
        Reschedule();
      }
      break;
    }
    case SimEvent::Kind::kBurstEnd:
      for (int machine = ev.a; machine < ev.b; ++machine) {
        RecoverMachine(machine);
      }
      if (unfinished_jobs_ > 0) {
        Reschedule();
      }
      break;
    case SimEvent::Kind::kFaultMark: {
      if (unfinished_jobs_ == 0) {
        break;
      }
      // Gray windows change no machine state; the mark makes their onset visible
      // in the trace (magnitude + fault-domain / period details).
      const FaultWindow& w =
          fault_injector_->plan().windows()[static_cast<size_t>(ev.handle)];
      const bool spike = w.kind == FaultKind::kAdversarialSpike;
      obs_.Emit(eq_.now(),
                FaultInjectedEvent{w.kind, static_cast<int>(ev.handle), -1, w.magnitude,
                                   spike ? w.period_seconds
                                         : static_cast<double>(w.first_machine),
                                   spike ? 0.0 : static_cast<double>(w.machine_count)});
      if (spike) {
        // The on-phase may already cover the window start; re-evaluate demand now
        // rather than waiting for the next cluster tick.
        Reschedule();
      }
      break;
    }
    case SimEvent::Kind::kClusterTick:
      ClusterTick();
      break;
    case SimEvent::Kind::kSpeculationTick:
      SpeculationTick();
      break;
  }
}

void ClusterSimulator::StartJob(int job_id) {
  JobState& job = jobs_[static_cast<size_t>(job_id)];
  job.dag = std::make_unique<DependencyTracker::State>(*job.tracker);
  job.started = true;
  live_.Assign(job_id, true);
  job.last_alloc_change = eq_.now();
  DrainReady(job);
  if (job.opts.controller != nullptr) {
    ControlTick(job_id);
  } else {
    Reschedule();
  }
}

void ClusterSimulator::DrainReady(JobState& job) {
  ready_scratch_.clear();
  job.dag->TakeNewlyReadyInto(ready_scratch_);
  for (int t : ready_scratch_) {
    if (!job.ever_ready[static_cast<size_t>(t)]) {
      job.ever_ready[static_cast<size_t>(t)] = true;
      job.records[static_cast<size_t>(t)].ready_time = eq_.now();
    }
    job.pending.push_back(t);
    obs_.Emit(eq_.now(), TaskReadyEvent{job.id, job.tracker->StageOf(t), t, false});
  }
  Refile(job);
  // Compact the FIFO when the dead prefix dominates.
  if (job.pending_head > 1024 && job.pending_head * 2 > job.pending.size()) {
    job.pending.erase(job.pending.begin(),
                      job.pending.begin() + static_cast<int64_t>(job.pending_head));
    job.pending_head = 0;
  }
}

void ClusterSimulator::AccumulateGuaranteedSeconds(JobState& job) {
  job.result.guaranteed_token_seconds +=
      static_cast<double>(job.guaranteed_tokens) * (eq_.now() - job.last_alloc_change);
  job.last_alloc_change = eq_.now();
}

void ClusterSimulator::InjectReportFaults(JobState& job, JobRuntimeStatus& status) {
  // Record the truthful observation first: dropout/staleness windows replay from
  // this history, so the served snapshot is always something the job really looked
  // like at an earlier tick.
  job.report_history.push_back(
      ReportSnapshot{eq_.now(), status.frac_complete, status.completed_tasks});

  const FaultWindow* dropout =
      fault_injector_->Active(FaultKind::kReportDropout, eq_.now(), job.id);
  const FaultWindow* stale =
      dropout == nullptr
          ? fault_injector_->Active(FaultKind::kReportStale, eq_.now(), job.id)
          : nullptr;
  if (dropout != nullptr || stale != nullptr) {
    // Dropout: reports froze when the window opened. Staleness: reports arrive
    // `magnitude` seconds late. Both serve the newest snapshot at or before the
    // cutoff; with none, the controller is fully blind since submission.
    const double cutoff = dropout != nullptr ? dropout->start_seconds
                                             : eq_.now() - stale->magnitude;
    const ReportSnapshot* snap = nullptr;
    for (const ReportSnapshot& s : job.report_history) {
      if (s.time <= cutoff) {
        snap = &s;
      } else {
        break;
      }
    }
    if (snap != nullptr) {
      status.frac_complete = snap->frac;
      status.completed_tasks = snap->completed;
      status.report_age_seconds = eq_.now() - snap->time;
    } else {
      std::fill(status.frac_complete.begin(), status.frac_complete.end(), 0.0);
      status.completed_tasks = 0;
      status.report_age_seconds = status.elapsed_seconds;
    }
    status.report_fresh = false;
    const FaultWindow& w = dropout != nullptr ? *dropout : *stale;
    obs_.Emit(eq_.now(),
              FaultInjectedEvent{w.kind, fault_injector_->IndexOf(w), job.id,
                                 w.magnitude, status.report_age_seconds, 0.0});
    ++tallies_.fault_report_faults;
    return;  // dropout/staleness dominates; noise on a frozen report is meaningless
  }

  const FaultWindow* noise =
      fault_injector_->Active(FaultKind::kReportNoise, eq_.now(), job.id);
  if (noise != nullptr) {
    for (double& frac : status.frac_complete) {
      frac = fault_injector_->PerturbFraction(*noise, frac);
    }
    obs_.Emit(eq_.now(),
              FaultInjectedEvent{noise->kind, fault_injector_->IndexOf(*noise),
                                 job.id, noise->magnitude, 0.0, 0.0});
    ++tallies_.fault_report_faults;
  }
}

void ClusterSimulator::ControlTick(int job_id) {
  JobState& job = jobs_[static_cast<size_t>(job_id)];
  if (job.finished) {
    return;
  }
  SimEvent next;
  next.kind = SimEvent::Kind::kControlTick;
  next.a = job_id;
  if (fault_injector_ != nullptr) {
    const FaultWindow* blackout =
        fault_injector_->Active(FaultKind::kControlBlackout, eq_.now(), job.id);
    if (blackout != nullptr) {
      // The controller is unreachable: no decision, the last granted allocation
      // holds until the next tick that gets through.
      obs_.Emit(eq_.now(),
                FaultInjectedEvent{blackout->kind, fault_injector_->IndexOf(*blackout),
                                   job.id, 0.0,
                                   static_cast<double>(job.guaranteed_tokens), 0.0});
      ++tallies_.fault_blackouts;
      eq_.ScheduleAfter(job.opts.control_period_seconds, next);
      return;
    }
  }
  JobRuntimeStatus status;
  status.now = eq_.now();
  status.elapsed_seconds = eq_.now() - job.opts.submit_time;
  job.dag->FracCompleteInto(status.frac_complete);
  status.guaranteed_tokens = job.guaranteed_tokens;
  status.running_tasks = job.running_guaranteed() + job.running_spare();
  status.pending_tasks = static_cast<int>(job.pending.size() - job.pending_head);
  status.completed_tasks = job.dag->done_total();
  status.total_tasks = job.tracker->total_tasks();
  if (fault_injector_ != nullptr && fault_injector_->HasReportFaults()) {
    InjectReportFaults(job, status);
  }

  ControlDecision decision = job.opts.controller->OnTick(status);
  int new_g = std::clamp(decision.guaranteed_tokens, 0, job.opts.max_guaranteed_tokens);
  if (fault_injector_ != nullptr) {
    const FaultWindow* shortfall =
        fault_injector_->Active(FaultKind::kGrantShortfall, eq_.now(), job.id);
    if (shortfall != nullptr) {
      const int requested = new_g;
      new_g = FaultInjector::ShortfallGrant(*shortfall, requested);
      if (new_g != requested) {
        obs_.Emit(eq_.now(),
                  FaultInjectedEvent{shortfall->kind,
                                     fault_injector_->IndexOf(*shortfall), job.id,
                                     shortfall->magnitude,
                                     static_cast<double>(requested),
                                     static_cast<double>(new_g)});
        ++tallies_.fault_grant_shortfalls;
      }
    }
  }
  AccumulateGuaranteedSeconds(job);
  if (new_g != job.guaranteed_tokens) {
    obs_.Emit(eq_.now(), AllocationChangeEvent{job_id, job.guaranteed_tokens, new_g});
    ++tallies_.allocation_changes;
  }
  job.guaranteed_tokens = new_g;
  Refile(job);
  job.result.timeline.push_back(AllocationSample{eq_.now(), new_g, decision.raw_allocation,
                                                 status.running_tasks, job.running_spare()});
  if (timeseries_ != nullptr) {
    // Policies without a completion model leave progress unset; fall back to the
    // task-count fraction so the timeline still shows movement. A negative
    // predicted-remaining stays negative: the recorder reads it as "no prediction"
    // and tracks deadline slack from elapsed time alone.
    const double ts_progress =
        decision.progress >= 0.0
            ? decision.progress
            : (status.total_tasks > 0
                   ? static_cast<double>(status.completed_tasks) /
                         static_cast<double>(status.total_tasks)
                   : 0.0);
    timeseries_->OnControlSample(job_id, eq_.now(), status.elapsed_seconds, ts_progress,
                                 decision.predicted_remaining_seconds, new_g);
  }
  Reschedule();
  eq_.ScheduleAfter(job.opts.control_period_seconds, next);
}

double ClusterSimulator::CurrentUtilization() const {
  // Contention pressure: slots actually running, plus a discounted term for queued
  // background demand (work waiting for slots still hammers the network and disks,
  // but less than running work). This is what makes an overloaded cluster slow every
  // running task, not just shrink the spare pool.
  //
  // The sum runs job by job in id order, interleaving each SuperHigh job's
  // fractional pressure term with the integer counts; rounding makes that order
  // part of the result. Unstarted and finished jobs run nothing, so their terms are
  // exactly +0 and only live jobs are visited. With no SuperHigh attempt running
  // every pressure term is +0 and the partial sums are exact integers, so one
  // integer total gives the same double.
  double running = static_cast<double>(background_slots_);
  if (superhigh_running_ == 0) {
    running += running_guaranteed_ + running_spare_;
  } else {
    for (int id = live_.Next(0); id >= 0; id = live_.Next(id + 1)) {
      const JobState& job = jobs_[static_cast<size_t>(id)];
      const int n = job.running_guaranteed() + job.running_spare();
      running += n;
      if (job.opts.priority == PriorityClass::kSuperHigh) {
        // SuperHigh tasks win every local resource conflict, so each one degrades
        // co-located work beyond its own slot (Section 3.1's contention downside).
        running += (config_.superhigh_pressure_factor - 1.0) * n;
      }
    }
  }
  double queued = std::max(0, background_demand_ - background_slots_);
  int up = TotalUpSlots();
  if (up == 0) {
    return 1.5;
  }
  double pressure = (running + 0.3 * queued) / static_cast<double>(up);
  return std::min(pressure, 1.5);
}

void ClusterSimulator::StartTask(JobState& job, int job_id, int flat_task, bool spare,
                                 bool speculative) {
  int stage = job.tracker->StageOf(flat_task);
  const StageRuntimeModel& model = job.tmpl->runtime[static_cast<size_t>(stage)];

  // Random placement across up machines; placement is for heterogeneity and failure
  // domains, aggregate capacity is enforced by the token accounting in Reschedule().
  int machine = -1;
  do {
    machine = static_cast<int>(rng_.UniformInt(0, config_.num_machines - 1));
  } while (!machines_[static_cast<size_t>(machine)].up);

  double dispatch = config_.scheduling_delay_seconds * (0.5 + job.rng.Exponential(1.0));
  double contention_excess = std::max(0.0, CurrentUtilization() - config_.contention_threshold);
  if (job.opts.priority == PriorityClass::kSuperHigh) {
    // SuperHigh tasks are largely shielded from contention: they run when ready and
    // win local resource conflicts (Section 3.1).
    contention_excess *= 0.25;
  }
  double contention = 1.0 + config_.contention_slope * contention_excess;
  double exec = model.SampleSeconds(job.rng) * job.opts.input_scale *
                machines_[static_cast<size_t>(machine)].speed * contention;
  if (fault_injector_ != nullptr) {
    // Gray failure: a slow-but-alive machine stretches the attempt's service time
    // without tripping any failure path — the runtime model still believes the
    // healthy speed.
    const double slowdown = fault_injector_->SlowdownFactor(eq_.now(), machine);
    if (slowdown != 1.0) {
      exec *= slowdown;
      ++tallies_.fault_machine_slowdowns;
    }
    // An adversarial spike oversubscribes the cluster: beyond squeezing spare
    // capacity (Reschedule below), tasks dispatched while the spike is on run
    // co-located with the surge and their service time stretches with it.
    const double spike = fault_injector_->SpikeBoost(eq_.now());
    if (spike > 0.0) {
      exec *= 1.0 + spike;
    }
  }
  bool fails = job.rng.Bernoulli(model.failure_prob);
  double lifetime = fails ? dispatch + exec * job.rng.Uniform() : dispatch + exec;

  AttemptArena::Handle handle =
      arena_.Allocate(job.active, flat_task, machine, eq_.now(), eq_.now() + dispatch,
                      eq_.now() + dispatch + exec, spare, speculative);
  // The newest attempt has the largest order: appending keeps start order.
  (spare ? job.spare : job.guaranteed).push_back(AttemptArena::SlotOf(handle));
  ++job.running_copies[static_cast<size_t>(flat_task)];
  ++(spare ? running_spare_ : running_guaranteed_);
  if (job.opts.priority == PriorityClass::kSuperHigh) {
    ++superhigh_running_;
  }
  Refile(job);
  job.result.max_parallelism =
      std::max(job.result.max_parallelism, job.running_guaranteed() + job.running_spare());
  obs_.Emit(eq_.now(), TaskDispatchEvent{job.id, stage, flat_task, machine, spare, speculative});
  ++tallies_.dispatches;
  if (spare) {
    ++tallies_.spare_dispatches;
  }

  SimEvent ev;
  ev.kind = SimEvent::Kind::kTaskEnd;
  ev.fails = fails;
  ev.a = job_id;
  ev.handle = handle;
  eq_.ScheduleAfter(lifetime, ev);
}

void ClusterSimulator::ReleaseAttempt(JobState& job, AttemptArena::Handle handle) {
  const uint32_t slot = AttemptArena::SlotOf(handle);
  const bool spare = arena_.spare(slot);
  EraseInStartOrder(arena_, spare ? job.spare : job.guaranteed, slot);
  --job.running_copies[static_cast<size_t>(arena_.flat_task(slot))];
  --(spare ? running_spare_ : running_guaranteed_);
  if (job.opts.priority == PriorityClass::kSuperHigh) {
    --superhigh_running_;
  }
  arena_.Release(handle, job.active);
  Refile(job);
}

void ClusterSimulator::Reclassify(JobState& job, uint32_t slot, bool spare) {
  EraseInStartOrder(arena_, spare ? job.guaranteed : job.spare, slot);
  InsertInStartOrder(arena_, spare ? job.spare : job.guaranteed, slot);
  arena_.set_spare(slot, spare);
  running_guaranteed_ += spare ? -1 : 1;
  running_spare_ += spare ? 1 : -1;
}

void ClusterSimulator::Refile(JobState& job) {
  rebalance_.Assign(job.id, job.NeedsRebalance());
  hungry_[static_cast<int>(job.opts.priority)].Assign(job.id, job.WantsGuaranteedStart());
  spare_takers_.Assign(job.id, job.opts.use_spare_tokens && job.HasQueuedTask());
}

void ClusterSimulator::KillAttempt(JobState& job, AttemptArena::Handle handle,
                                   KillReason reason) {
  assert(arena_.Alive(handle));
  const uint32_t slot = AttemptArena::SlotOf(handle);
  const int flat_task = arena_.flat_task(slot);
  auto& rec = job.records[static_cast<size_t>(flat_task)];
  ++rec.failed_attempts;
  rec.wasted_seconds += eq_.now() - arena_.attempt_start(slot);
  if (reason == KillReason::kSpareEviction) {
    ++job.result.evictions;
  }
  ReleaseAttempt(job, handle);
  // Requeue unless another copy of the task still runs (a killed duplicate must not
  // resurrect a task its primary is already executing, and vice versa).
  bool requeued = job.running_copies[static_cast<size_t>(flat_task)] == 0;
  if (requeued) {
    job.pending.push_back(flat_task);
    Refile(job);
  }
  obs_.Emit(eq_.now(), TaskKilledEvent{job.id, job.tracker->StageOf(flat_task), flat_task,
                                       reason, requeued});
  if (requeued) {
    obs_.Emit(eq_.now(), TaskReadyEvent{job.id, job.tracker->StageOf(flat_task), flat_task, true});
  }
  switch (reason) {
    case KillReason::kSpareEviction:
      ++tallies_.evictions;
      break;
    case KillReason::kTaskFailure:
      ++tallies_.task_failures;
      break;
    case KillReason::kMachineFailure:
      ++tallies_.machine_failure_kills;
      break;
  }
  if (requeued) {
    ++tallies_.reexecutions;
  }
}

void ClusterSimulator::OnTaskComplete(int job_id, AttemptArena::Handle handle) {
  JobState& job = jobs_[static_cast<size_t>(job_id)];
  assert(arena_.Alive(handle));  // Dispatch dropped stale handles already
  const uint32_t slot = AttemptArena::SlotOf(handle);
  const int flat_task = arena_.flat_task(slot);
  const SimTime exec_start = arena_.exec_start(slot);
  const bool spare = arena_.spare(slot);
  const bool speculative = arena_.speculative(slot);
  if (spare) {
    ++job.spare_completions;
  }
  ReleaseAttempt(job, handle);
  if (speculative) {
    ++job.result.speculative_wins;
  }

  // Cancel any other copy of the task; its time is wasted work.
  if (job.running_copies[static_cast<size_t>(flat_task)] > 0) {
    kill_scratch_.clear();
    for (uint32_t other : job.active) {
      if (arena_.flat_task(other) == flat_task) {
        kill_scratch_.push_back(arena_.handle_of(other));
      }
    }
    for (AttemptArena::Handle other : kill_scratch_) {
      job.records[static_cast<size_t>(flat_task)].wasted_seconds +=
          eq_.now() - arena_.attempt_start(AttemptArena::SlotOf(other));
      ReleaseAttempt(job, other);
    }
  }

  auto& rec = job.records[static_cast<size_t>(flat_task)];
  rec.start_time = exec_start;
  rec.end_time = eq_.now();
  int stage = job.tracker->StageOf(flat_task);
  job.stage_exec_stats[static_cast<size_t>(stage)].Add(eq_.now() - exec_start);
  obs_.Emit(eq_.now(), TaskCompleteEvent{job.id, stage, flat_task, spare, speculative});
  ++tallies_.completions;
  if (speculative) {
    ++tallies_.speculative_wins;
  }
  if (exec_seconds_hist_ != nullptr) {
    exec_seconds_hist_->Observe(eq_.now() - exec_start);
  }

  ++job.completions;
  job.dag->MarkDone(flat_task);
  DrainReady(job);
  if (job.dag->AllDone()) {
    FinishJob(job_id);
  }
  Reschedule();
}

void ClusterSimulator::FinishJob(int job_id) {
  JobState& job = jobs_[static_cast<size_t>(job_id)];
  assert(!job.finished);
  job.finished = true;
  live_.Assign(job_id, false);
  --unfinished_jobs_;
  AccumulateGuaranteedSeconds(job);
  job.result.finished = true;
  job.result.trace.finish_time = eq_.now();
  job.result.trace.tasks = job.records;
  job.result.spare_task_fraction =
      job.completions > 0
          ? static_cast<double>(job.spare_completions) / static_cast<double>(job.completions)
          : 0.0;
  job.result.timeline.push_back(AllocationSample{eq_.now(), job.guaranteed_tokens, 0.0, 0, 0});
  obs_.Emit(eq_.now(), JobFinishEvent{job.id, eq_.now() - job.result.trace.submit_time});
  if (timeseries_ != nullptr) {
    timeseries_->OnJobFinish(job.id, eq_.now(), eq_.now() - job.result.trace.submit_time);
  }
  ++tallies_.jobs_finished;
  if (completion_seconds_hist_ != nullptr) {
    completion_seconds_hist_->Observe(eq_.now() - job.result.trace.submit_time);
  }
  if (job.opts.controller != nullptr) {
    job.opts.controller->OnFinished(eq_.now());
  }
}

void ClusterSimulator::Reschedule() {
  int up = TotalUpSlots();
  // Background demand is sized against nominal capacity (background work does not
  // vanish when machines fail), granted against what is left after guarantees.
  double utilization = background_.UtilizationAt(eq_.now());
  if (fault_injector_ != nullptr) {
    // Adversarial spike: extra demand during the on-phase of each period. Because
    // the period is tuned to the control period, the controller keeps sampling the
    // same phase — it either never sees the spike or never sees the calm.
    const double boost = fault_injector_->SpikeBoost(eq_.now());
    if (boost > 0.0) {
      utilization += boost;
      ++tallies_.fault_adversarial_spikes;
    }
  }
  int demanded = static_cast<int>(std::lround(utilization * config_.TotalSlots()));
  background_demand_ = demanded;

  // Phase 1: guaranteed tokens. Promote already-running spare tasks first (they keep
  // their progress), then start pending tasks. Only the jobs in rebalance_ have a
  // demotion or promotion due; a job's moves touch only its own attempts.
  for (int id = rebalance_.Next(0); id >= 0; id = rebalance_.Next(id + 1)) {
    JobState& job = jobs_[static_cast<size_t>(id)];
    // Demote newest guaranteed tasks to spare if the guarantee shrank below usage.
    while (job.running_guaranteed() > job.guaranteed_tokens) {
      Reclassify(job, job.guaranteed.back(), /*spare=*/true);
    }
    // Promote spare tasks up to the guarantee (oldest first: most progress saved).
    while (job.running_guaranteed() < job.guaranteed_tokens && !job.spare.empty()) {
      Reclassify(job, job.spare.front(), /*spare=*/false);
    }
    Refile(job);
  }
  // Start new guaranteed tasks while physical slots remain; SuperHigh guarantees are
  // served strictly before normal ones (Section 3.1's priority ordering).
  for (PriorityClass pass : {PriorityClass::kSuperHigh, PriorityClass::kNormal}) {
    const JobSet& hungry = hungry_[static_cast<int>(pass)];
    for (int id = hungry.Next(0); id >= 0 && running_guaranteed_ < up; id = hungry.Next(id + 1)) {
      JobState& job = jobs_[static_cast<size_t>(id)];
      while (job.WantsGuaranteedStart() && running_guaranteed_ < up) {
        int task = job.pending[job.pending_head++];
        StartTask(job, id, task, /*spare=*/false, /*speculative=*/false);
      }
    }
  }

  // Phase 2: background demand squeezes what is left.
  background_slots_ = std::clamp(demanded, 0, std::max(0, up - running_guaranteed_));
  int spare_budget = up - running_guaranteed_ - background_slots_;

  // Phase 3: evict spare tasks (newest first) if the budget no longer covers them.
  while (running_spare_ > std::max(0, spare_budget)) {
    JobState* victim = nullptr;
    for (int id = live_.Next(0); id >= 0; id = live_.Next(id + 1)) {
      JobState& job = jobs_[static_cast<size_t>(id)];
      if (!job.spare.empty() && (victim == nullptr || arena_.order(job.spare.back()) >
                                                          arena_.order(victim->spare.back()))) {
        victim = &job;
      }
    }
    assert(victim != nullptr);  // running_spare_ > 0: some live job runs spare work
    KillAttempt(*victim, arena_.handle_of(victim->spare.back()), KillReason::kSpareEviction);
  }

  // Phase 4: hand spare tokens to jobs with pending work, round-robin.
  bool assigned = true;
  while (running_spare_ < spare_budget && assigned) {
    assigned = false;
    for (int id = spare_takers_.Next(0); id >= 0 && running_spare_ < spare_budget;
         id = spare_takers_.Next(id + 1)) {
      JobState& job = jobs_[static_cast<size_t>(id)];
      int task = job.pending[job.pending_head++];
      StartTask(job, id, task, /*spare=*/true, /*speculative=*/false);
      assigned = true;
    }
  }

  if (timeseries_ != nullptr) {
    // spare_budget is the pool handed out at spare priority this round — the
    // "spare tokens" series of the utilization timeline. The recorder throttles to
    // its sampling period, so per-reschedule calls stay cheap.
    timeseries_->OnClusterSample(eq_.now(), CurrentUtilization(), up, background_slots_,
                                 std::max(0, spare_budget));
  }
}

void ClusterSimulator::SpeculationTick() {
  if (unfinished_jobs_ == 0) {
    return;
  }
  const int up = TotalUpSlots();
  for (int id = live_.Next(0); id >= 0; id = live_.Next(id + 1)) {
    JobState& job = jobs_[static_cast<size_t>(id)];
    // Duplicates only launch into genuinely free spare headroom; launching into a
    // saturated cluster just gets the copy evicted and churns.
    int running_total = running_guaranteed_ + running_spare_;
    int spare_headroom = up - running_guaranteed_ - background_slots_ - running_spare_;
    // Collect straggler candidates first; launching mutates job.active.
    straggler_scratch_.clear();
    for (uint32_t slot : job.active) {
      if (arena_.speculative(slot)) {
        continue;
      }
      const int flat_task = arena_.flat_task(slot);
      const RunningStats& baseline =
          job.stage_exec_stats[static_cast<size_t>(job.tracker->StageOf(flat_task))];
      if (static_cast<int>(baseline.count()) < config_.speculation_min_samples) {
        continue;
      }
      double elapsed = eq_.now() - arena_.exec_start(slot);
      if (elapsed < config_.speculation_slowdown * baseline.mean()) {
        continue;
      }
      if (job.running_copies[static_cast<size_t>(flat_task)] > 1) {
        continue;  // already has a duplicate
      }
      if (job.speculation_budget_used[static_cast<size_t>(flat_task)] >=
          config_.speculation_max_per_task) {
        continue;  // duplicate budget exhausted for this task
      }
      straggler_scratch_.push_back(flat_task);
    }
    for (int task : straggler_scratch_) {
      if (running_total >= up || spare_headroom <= 0) {
        break;  // no free headroom; launching would only trigger an eviction
      }
      ++job.speculation_budget_used[static_cast<size_t>(task)];
      obs_.Emit(eq_.now(), SpeculativeLaunchEvent{job.id, job.tracker->StageOf(task), task});
      ++tallies_.speculative_launched;
      StartTask(job, id, task, /*spare=*/true, /*speculative=*/true);
      ++job.result.speculative_launched;
      ++running_total;
      --spare_headroom;
    }
  }
  SimEvent next;
  next.kind = SimEvent::Kind::kSpeculationTick;
  eq_.ScheduleAfter(config_.speculation_check_period_seconds, next);
}

bool ClusterSimulator::FailMachine(int machine, int* killed) {
  Machine& m = machines_[static_cast<size_t>(machine)];
  if (!m.up) {
    return false;
  }
  m.up = false;
  --up_machines_;
  int total_killed = 0;
  for (int id = live_.Next(0); id >= 0; id = live_.Next(id + 1)) {
    JobState& job = jobs_[static_cast<size_t>(id)];
    kill_scratch_.clear();
    for (uint32_t slot : job.active) {
      if (arena_.machine(slot) == machine) {
        kill_scratch_.push_back(arena_.handle_of(slot));
      }
    }
    for (AttemptArena::Handle victim : kill_scratch_) {
      ++job.result.machine_failure_kills;
      ++total_killed;
      KillAttempt(job, victim, KillReason::kMachineFailure);
    }
  }
  obs_.Emit(eq_.now(), MachineFailureEvent{machine, total_killed});
  ++tallies_.machine_failures;
  if (killed != nullptr) {
    *killed += total_killed;
  }
  return true;
}

void ClusterSimulator::RecoverMachine(int machine) {
  Machine& m = machines_[static_cast<size_t>(machine)];
  if (m.up) {
    return;
  }
  m.up = true;
  ++up_machines_;
  obs_.Emit(eq_.now(), MachineRecoverEvent{machine});
}

void ClusterSimulator::ScheduleMachineFailure() {
  if (config_.machine_failure_rate_per_hour <= 0.0) {
    return;
  }
  double mean_gap = 3600.0 / (config_.machine_failure_rate_per_hour * config_.num_machines);
  SimEvent ev;
  ev.kind = SimEvent::Kind::kMachineFailureTick;
  eq_.ScheduleAfter(rng_.Exponential(mean_gap), ev);
}

void ClusterSimulator::MachineFailureTick() {
  if (unfinished_jobs_ == 0) {
    return;  // no reschedule: the Poisson chain dies with the last job
  }
  int machine = static_cast<int>(rng_.UniformInt(0, config_.num_machines - 1));
  if (FailMachine(machine, nullptr)) {
    SimEvent recover;
    recover.kind = SimEvent::Kind::kMachineRecover;
    recover.a = machine;
    eq_.ScheduleAfter(config_.machine_recovery_seconds, recover);
    Reschedule();
  }
  ScheduleMachineFailure();
}

void ClusterSimulator::ScheduleFaultWindows() {
  for (const FaultWindow* w : fault_injector_->WindowsOfKind(FaultKind::kMachineBurst)) {
    const int first = std::min(w->first_machine, config_.num_machines);
    const int last = std::min(w->first_machine + w->machine_count, config_.num_machines);
    SimEvent start;
    start.kind = SimEvent::Kind::kBurstStart;
    start.a = first;
    start.b = last;
    start.handle = static_cast<uint64_t>(fault_injector_->IndexOf(*w));
    eq_.ScheduleAt(w->start_seconds, start);
    SimEvent end;
    end.kind = SimEvent::Kind::kBurstEnd;
    end.a = first;
    end.b = last;
    eq_.ScheduleAt(w->end_seconds, end);
  }
  for (FaultKind kind : {FaultKind::kMachineSlowdown, FaultKind::kAdversarialSpike}) {
    for (const FaultWindow* w : fault_injector_->WindowsOfKind(kind)) {
      SimEvent mark;
      mark.kind = SimEvent::Kind::kFaultMark;
      mark.handle = static_cast<uint64_t>(fault_injector_->IndexOf(*w));
      eq_.ScheduleAt(w->start_seconds, mark);
    }
  }
}

void ClusterSimulator::ClusterTick() {
  // Periodic cluster tick: refreshes background demand and triggers evictions even
  // when no job event fires.
  if (unfinished_jobs_ == 0) {
    return;
  }
  Reschedule();
  SimEvent next;
  next.kind = SimEvent::Kind::kClusterTick;
  eq_.ScheduleAfter(config_.background.update_period_seconds, next);
}

void ClusterSimulator::Run(double max_seconds) {
  ScheduleMachineFailure();
  if (fault_injector_ != nullptr) {
    ScheduleFaultWindows();
  }
  SimEvent tick;
  tick.kind = SimEvent::Kind::kClusterTick;
  eq_.ScheduleAfter(config_.background.update_period_seconds, tick);
  if (config_.enable_speculation) {
    SimEvent spec;
    spec.kind = SimEvent::Kind::kSpeculationTick;
    eq_.ScheduleAfter(config_.speculation_check_period_seconds, spec);
  }

  SimEvent ev;
  while (unfinished_jobs_ > 0 && !eq_.empty() && eq_.now() < max_seconds) {
    eq_.PopNext(ev);
    Dispatch(ev);
  }
  FlushTallies();
}

void ClusterSimulator::set_observer(Observer observer) {
  obs_ = observer;
  if (obs_.metering()) {
    exec_seconds_hist_ =
        &obs_.metrics()->GetHistogram("cluster.task_exec_seconds", DefaultLatencySecondsEdges());
    completion_seconds_hist_ = &obs_.metrics()->GetHistogram("cluster.job_completion_seconds",
                                                             DefaultLatencySecondsEdges());
  } else {
    exec_seconds_hist_ = nullptr;
    completion_seconds_hist_ = nullptr;
  }
}

void ClusterSimulator::FlushTallies() {
  using Tally = std::pair<const char*, int64_t ObsTallies::*>;
  static constexpr Tally kClusterTallies[] = {
      {"cluster.jobs_submitted", &ObsTallies::jobs_submitted},
      {"cluster.jobs_finished", &ObsTallies::jobs_finished},
      {"cluster.allocation_changes", &ObsTallies::allocation_changes},
      {"cluster.dispatches", &ObsTallies::dispatches},
      {"cluster.spare_dispatches", &ObsTallies::spare_dispatches},
      {"cluster.completions", &ObsTallies::completions},
      {"cluster.evictions", &ObsTallies::evictions},
      {"cluster.task_failures", &ObsTallies::task_failures},
      {"cluster.machine_failure_kills", &ObsTallies::machine_failure_kills},
      {"cluster.reexecutions", &ObsTallies::reexecutions},
      {"cluster.speculative_launched", &ObsTallies::speculative_launched},
      {"cluster.speculative_wins", &ObsTallies::speculative_wins},
      {"cluster.machine_failures", &ObsTallies::machine_failures},
  };
  static constexpr Tally kFaultTallies[] = {
      {"fault.report_faults", &ObsTallies::fault_report_faults},
      {"fault.blackouts", &ObsTallies::fault_blackouts},
      {"fault.grant_shortfalls", &ObsTallies::fault_grant_shortfalls},
      {"fault.machine_bursts", &ObsTallies::fault_machine_bursts},
      {"fault.machine_slowdowns", &ObsTallies::fault_machine_slowdowns},
      {"fault.adversarial_spikes", &ObsTallies::fault_adversarial_spikes},
  };
  if (obs_.metering()) {
    for (const auto& [name, field] : kClusterTallies) {
      obs_.Count(name, tallies_.*field);
    }
    if (fault_injector_ != nullptr) {
      // Only materialized when an injector is attached: a fault-free run's metrics
      // export stays byte-identical to pre-fault-subsystem builds.
      for (const auto& [name, field] : kFaultTallies) {
        obs_.Count(name, tallies_.*field);
      }
    }
  }
  tallies_ = ObsTallies{};
}

const ClusterRunResult& ClusterSimulator::result(int job_id) const {
  return jobs_[static_cast<size_t>(job_id)].result;
}

}  // namespace jockey
