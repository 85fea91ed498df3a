// Tests for the controller's graceful degradation under control-plane faults:
// stale-hold, pessimistic escalation, the fallback estimator chain, blackout
// catch-up, grant compensation — and the end-to-end claim that the hardened
// controller beats the vanilla one under the chaos classes it defends against.

#include <gtest/gtest.h>

#include <memory>

#include "src/core/control_loop.h"
#include "src/core/experiment.h"
#include "src/core/utility.h"
#include "src/fault/fault_injector.h"
#include "src/obs/metrics.h"
#include "src/workload/job_generator.h"

namespace jockey {
namespace {

// A one-stage job so the indicator is trivially the completed fraction.
JobGraph OneStage() {
  std::vector<StageSpec> stages(1);
  stages[0] = {"work", 10, {}};
  return JobGraph("one", std::move(stages));
}

JobProfile OneStageProfile(const JobGraph& g) {
  RunTrace trace;
  for (int i = 0; i < g.stage(0).num_tasks; ++i) {
    trace.tasks.push_back({{0, i}, 0.0, 0.0, 600.0, 0, 0.0});
  }
  trace.finish_time = 6000.0;
  return JobProfile::FromTrace(g, trace);
}

// Remaining work is exactly 6000/a seconds regardless of progress.
std::shared_ptr<CompletionTable> DivisibleWorkTable(int max_tokens = 20) {
  std::vector<int> grid;
  for (int a = 1; a <= max_tokens; ++a) {
    grid.push_back(a);
  }
  auto table = std::make_shared<CompletionTable>(grid, 1);
  for (int ai = 0; ai < max_tokens; ++ai) {
    table->AddSample(0.0, ai, 6000.0 / grid[static_cast<size_t>(ai)]);
  }
  return table;
}

ControlLoopConfig DegradedConfig() {
  ControlLoopConfig config;
  config.slack = 1.0;
  config.hysteresis_alpha = 0.2;
  config.dead_zone_seconds = 0.0;
  config.min_tokens = 1;
  config.max_tokens = 20;
  config.enable_degraded_mode = true;
  config.stale_hold_seconds = 150.0;
  config.blind_escalation_rate = 0.5;
  return config;
}

std::shared_ptr<const ProgressIndicator> OneStageIndicator(const JobGraph& g,
                                                           const JobProfile& p) {
  return std::shared_ptr<const ProgressIndicator>(
      MakeIndicator(IndicatorKind::kVertexFrac, g, p));
}

JobRuntimeStatus StatusAt(double elapsed, double frac, int granted = 0) {
  JobRuntimeStatus status;
  status.now = elapsed;
  status.elapsed_seconds = elapsed;
  status.frac_complete = {frac};
  status.guaranteed_tokens = granted;
  return status;
}

JobRuntimeStatus StaleStatusAt(double elapsed, double frac, double age, int granted) {
  JobRuntimeStatus status = StatusAt(elapsed, frac, granted);
  status.report_fresh = false;
  status.report_age_seconds = age;
  return status;
}

TEST(DegradationTest, BrieflyStaleReportsHoldTheLastSafeAllocation) {
  JobGraph g = OneStage();
  JobProfile p = OneStageProfile(g);
  MetricsRegistry metrics;
  JockeyController c(OneStageIndicator(g, p), DivisibleWorkTable(), DeadlineUtility(1200.0),
                     DegradedConfig());
  c.set_observer(Observer(nullptr, &metrics));
  int adopted = c.OnTick(StatusAt(0.0, 0.0)).guaranteed_tokens;
  EXPECT_EQ(adopted, 5);  // 6000/a <= 1200 requires a >= 5
  // Reports go dark; the snapshot is only 60s old — hold, don't thrash.
  ControlDecision held = c.OnTick(StaleStatusAt(60.0, 0.05, 60.0, adopted));
  EXPECT_EQ(held.guaranteed_tokens, adopted);
  EXPECT_GE(metrics.CounterValue("control.degraded.stale_hold"), 1);
}

TEST(DegradationTest, LongBlindnessEscalatesTowardMaxTokens) {
  JobGraph g = OneStage();
  JobProfile p = OneStageProfile(g);
  ControlLoopConfig config = DegradedConfig();
  MetricsRegistry metrics;
  JockeyController c(OneStageIndicator(g, p), DivisibleWorkTable(), DeadlineUtility(1200.0),
                     config);
  c.set_observer(Observer(nullptr, &metrics));
  int granted = c.OnTick(StatusAt(0.0, 0.0)).guaranteed_tokens;
  int previous = granted;
  // Blind past the stale-hold threshold: each tick closes half the gap to max.
  for (int tick = 1; tick <= 8; ++tick) {
    double elapsed = 60.0 * tick + 200.0;
    granted = c.OnTick(StaleStatusAt(elapsed, 0.05, 200.0 + 60.0 * tick, granted))
                  .guaranteed_tokens;
    EXPECT_GE(granted, previous);
    previous = granted;
  }
  EXPECT_EQ(granted, config.max_tokens);
  EXPECT_GE(metrics.CounterValue("control.degraded.pessimistic_escalation"), 1);
}

TEST(DegradationTest, VanillaControllerCannotTellReportsWentStale) {
  JobGraph g = OneStage();
  JobProfile p = OneStageProfile(g);
  ControlLoopConfig vanilla = DegradedConfig();
  vanilla.enable_degraded_mode = false;
  JockeyController c(OneStageIndicator(g, p), DivisibleWorkTable(), DeadlineUtility(1200.0),
                     vanilla);
  c.OnTick(StatusAt(0.0, 0.0));
  // Frozen progress reports at growing elapsed time look like a stalled job; the
  // vanilla controller reacts to the *content* (it cannot see report_fresh), so its
  // allocation is driven by frac alone — the stale flag changes nothing.
  ControlDecision blind = c.OnTick(StaleStatusAt(300.0, 0.05, 300.0, 5));
  JockeyController fresh_twin(OneStageIndicator(g, p), DivisibleWorkTable(),
                              DeadlineUtility(1200.0), vanilla);
  fresh_twin.OnTick(StatusAt(0.0, 0.0));
  ControlDecision sighted = fresh_twin.OnTick(StatusAt(300.0, 0.05, 5));
  EXPECT_EQ(blind.guaranteed_tokens, sighted.guaranteed_tokens);
}

TEST(DegradationTest, TableFaultFallsBackToAmdahlModel) {
  JobGraph g = OneStage();
  JobProfile p = OneStageProfile(g);
  auto amdahl = std::make_shared<AmdahlModel>(g, p);
  FaultPlan plan(3);
  plan.Add(FaultPlan::TableFault(0.0, 1e9, 0.05));  // lookups read 5% of the truth
  FaultInjector injector(plan);

  MetricsRegistry metrics;
  JockeyController hardened(OneStageIndicator(g, p), DivisibleWorkTable(), amdahl,
                            DeadlineUtility(1200.0), DegradedConfig());
  hardened.set_fault_injector(&injector);
  hardened.set_observer(Observer(nullptr, &metrics));

  ControlLoopConfig vanilla_config = DegradedConfig();
  vanilla_config.enable_degraded_mode = false;
  JockeyController vanilla(OneStageIndicator(g, p), DivisibleWorkTable(), amdahl,
                           DeadlineUtility(1200.0), vanilla_config);
  vanilla.set_fault_injector(&injector);

  int hardened_tokens = hardened.OnTick(StatusAt(0.0, 0.0)).guaranteed_tokens;
  int vanilla_tokens = vanilla.OnTick(StatusAt(0.0, 0.0)).guaranteed_tokens;
  // The naive controller consumes predictions shrunk 20x and concludes one token is
  // plenty; the hardened one detects the window and asks the Amdahl model instead.
  EXPECT_EQ(vanilla_tokens, 1);
  EXPECT_GE(hardened_tokens, 5);
  EXPECT_GE(metrics.CounterValue("control.degraded.fallback_model"), 1);
}

TEST(DegradationTest, TableFaultWithoutAmdahlEscalates) {
  JobGraph g = OneStage();
  JobProfile p = OneStageProfile(g);
  FaultPlan plan(3);
  plan.Add(FaultPlan::TableFault(0.0, 1e9, 0.05));
  FaultInjector injector(plan);
  MetricsRegistry metrics;
  ControlLoopConfig config = DegradedConfig();
  JockeyController c(OneStageIndicator(g, p), DivisibleWorkTable(), nullptr,
                     DeadlineUtility(1200.0), config);
  c.set_fault_injector(&injector);
  c.set_observer(Observer(nullptr, &metrics));
  int granted = c.OnTick(StatusAt(0.0, 0.0, 5)).guaranteed_tokens;
  for (int tick = 1; tick <= 8; ++tick) {
    granted = c.OnTick(StatusAt(60.0 * tick, 0.02 * tick, granted)).guaranteed_tokens;
  }
  // The model is gone and there is no fallback estimator: the only safe answer is
  // the most pessimistic one.
  EXPECT_EQ(granted, config.max_tokens);
  EXPECT_GE(metrics.CounterValue("control.degraded.model_loss_escalation"), 1);
}

TEST(DegradationTest, GrantShortfallInflatesSubsequentRequests) {
  JobGraph g = OneStage();
  JobProfile p = OneStageProfile(g);
  JockeyController c(OneStageIndicator(g, p), DivisibleWorkTable(), DeadlineUtility(1200.0),
                     DegradedConfig());
  int requested = c.OnTick(StatusAt(0.0, 0.0)).guaranteed_tokens;
  ASSERT_EQ(requested, 5);
  // The scheduler granted only half of what was requested; the controller learns the
  // ratio and over-asks so the *effective* grant lands where the loop wants it.
  ControlDecision next = c.OnTick(StatusAt(60.0, 0.02, requested / 2));
  EXPECT_LT(c.grant_ratio_estimate(), 1.0);
  EXPECT_GT(next.guaranteed_tokens, requested);
}

TEST(DegradationTest, BlackoutGapSnapsPastHysteresis) {
  JobGraph g = OneStage();
  JobProfile p = OneStageProfile(g);
  ControlLoopConfig config = DegradedConfig();
  config.hysteresis_alpha = 0.1;  // sluggish smoothing makes the snap visible
  MetricsRegistry metrics;
  JockeyController hardened(OneStageIndicator(g, p), DivisibleWorkTable(),
                            DeadlineUtility(1200.0), config);
  hardened.set_observer(Observer(nullptr, &metrics));
  ControlLoopConfig vanilla_config = config;
  vanilla_config.enable_degraded_mode = false;
  JockeyController vanilla(OneStageIndicator(g, p), DivisibleWorkTable(),
                           DeadlineUtility(1200.0), vanilla_config);

  // Establish the control period (60s), then skip four ticks (a blackout) and come
  // back badly behind schedule: raw wants far more than the smoothed level. Grants
  // track requests exactly so grant compensation stays out of the picture.
  ControlDecision caught_up;
  ControlDecision smoothed;
  for (JockeyController* c : {&hardened, &vanilla}) {
    int granted = c->OnTick(StatusAt(0.0, 0.0)).guaranteed_tokens;
    granted = c->OnTick(StatusAt(60.0, 0.01, granted)).guaranteed_tokens;
    ControlDecision after_gap = c->OnTick(StatusAt(360.0, 0.02, granted));
    (c == &hardened ? caught_up : smoothed) = after_gap;
  }
  EXPECT_GT(caught_up.guaranteed_tokens, smoothed.guaranteed_tokens);
  EXPECT_EQ(caught_up.guaranteed_tokens,
            static_cast<int>(std::ceil(caught_up.raw_allocation)));
  EXPECT_GE(metrics.CounterValue("control.degraded.blackout_catchup"), 1);
}

// End-to-end: under the fault classes the hardening defends against, the hardened
// controller must miss strictly fewer deadlines than the vanilla one (the chaos
// sweep's acceptance bar), on the same seeds and the same fault plans.
TEST(DegradationTest, HardenedControllerBeatsVanillaUnderChaos) {
  // Long enough to span dozens of control ticks, and throughput-bound (many tasks,
  // low duration variance) so the completion time tracks the token allocation — a
  // tail-dominated job is allocation-insensitive exactly when the faults bite.
  JobShapeSpec spec;
  spec.name = "chaos";
  spec.num_stages = 6;
  spec.num_barriers = 1;
  spec.num_vertices = 2400;
  spec.job_median_seconds = 20.0;
  spec.job_p90_seconds = 28.0;
  spec.fastest_stage_p90 = 10.0;
  spec.slowest_stage_p90 = 35.0;
  spec.seed = 71;
  TrainedJob trained = TrainJob(GenerateJob(spec));
  // The tight-SLO reference point: clean runs at 1.5x input just meet it. Each
  // class below picks its own deadline (and possibly a mid-run change) relative
  // to this, so a controller that goes blind or under-granted mid-run has no
  // slack left to coast on.
  const double d = SuggestDeadlineSeconds(trained, /*tight=*/true);

  // Both arms share one production-style control tuning — sluggish smoothing so the
  // loop does not thrash on cluster-weather noise. The degraded-mode paths (stale
  // hold, pessimistic escalation, blackout snap, grant compensation) deliberately
  // bypass that smoothing; the *only* difference between the arms is the flag.
  ControlLoopConfig base_control = trained.jockey->config().control;
  base_control.hysteresis_alpha = 0.1;
  base_control.enable_degraded_mode = false;
  ControlLoopConfig hardened_control = base_control;
  hardened_control.enable_degraded_mode = true;

  struct Class {
    const char* name;
    FaultPlan plan;
    double deadline;
    double input_scale;
    int max_tokens;
    std::optional<DeadlineChange> deadline_change = std::nullopt;
    bool use_spare = false;
  };
  std::vector<Class> classes;
  // Each class pins the experiment shape that makes its fault decisive.
  //
  // Reports freeze at ~76% progress while the 1.5x input still hides real work, and
  // the SLO then tightens mid-run: the hardened controller recognizes the reports
  // went stale and escalates pessimistically toward the maximum while time remains;
  // the vanilla one reacts only to the frozen report content, crawling up through
  // hysteresis far too slowly for the tightened deadline.
  classes.push_back({"dropout",
                     FaultPlan(1).Add(FaultPlan::ReportDropout(0.60 * d, 2.0 * d)),
                     d, 1.5, 100, DeadlineChange{0.70 * d, 0.80 * d}});
  // The SLO tightens from the loose to the tight deadline while the control plane
  // is unreachable (Fig 7's mid-run deadline change, during an outage): the frozen
  // allocation was sized for the loose deadline, and when ticks resume the vanilla
  // controller crawls toward the new demand through hysteresis while the hardened
  // one detects the tick gap and snaps straight to the raw allocation.
  classes.push_back({"blackout",
                     FaultPlan(1).Add(FaultPlan::ControlBlackout(0.20 * d, 0.70 * d)),
                     2.0 * d, 1.0, 100,
                     DeadlineChange{0.30 * d, 0.95 * d}});
  // Persistent 62% grants: only a controller that tracks granted-vs-requested
  // over-asks early enough to land the effective allocation where the loop wants it.
  classes.push_back({"shortfall",
                     FaultPlan(1).Add(FaultPlan::GrantShortfall(0.0, 2.0 * d, 0.62)),
                     1.0 * d, 1.5, 100});
  // Gray failures: the component stays alive but degrades, so nothing crashes and
  // no report goes missing — only the realized progress *rate* betrays the fault.
  //
  // 40% of the machines turn slow-but-alive (3x service time) just after the run
  // starts while the model still trusts its healthy training profile. Realized
  // progress lags what each tick's prediction implied; the hardened controller's
  // straggler detector escalates within two ticks, the vanilla one waits out the
  // dead zone and then crawls up through hysteresis.
  classes.push_back({"slowdown",
                     FaultPlan(1).Add(
                         FaultPlan::MachineSlowdown(0.05 * d, 2.0 * d, 3.0, 0, 60)),
                     1.1 * d, 1.0, 100});
  // The offline profile itself is corrupted: every prediction shrinks to 35-84% of
  // the truth, so the model is *optimistic* and the vanilla controller under-
  // allocates from the first tick — there is no healthy table to fall back to.
  // Only comparing realized against implied progress rates exposes the skew.
  classes.push_back({"skew",
                     FaultPlan(1).Add(FaultPlan::ProfileSkew(0.0, 2.0 * d, 0.65)),
                     1.0 * d, 1.5, 100});
  // Background-demand spikes phase-locked to the 60s control period: for half of
  // every period spare-token backfill evaporates and co-located attempts run
  // 2.5x slower. Because the spike repeats at exactly the control frequency, every
  // tick samples the same on/off mix — the oscillation is invisible, only the
  // persistently lagging progress rate gives it away.
  classes.push_back({"spike",
                     FaultPlan(1).Add(
                         FaultPlan::AdversarialSpike(0.05 * d, 2.0 * d, 1.5, 60.0)),
                     1.6 * d, 1.5, 100, std::nullopt, /*use_spare=*/true});
  for (Class& cls : classes) {
    int vanilla_misses = 0;
    int hardened_misses = 0;
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      ExperimentOptions options;
      options.deadline_seconds = cls.deadline;
      options.seed = seed;
      options.jitter_input = false;
      // No spare-token backfill (unless the class is *about* spare capacity): the
      // guaranteed allocation decides the outcome.
      options.input_scale = cls.input_scale;
      options.max_tokens = cls.max_tokens;
      options.use_spare_tokens = cls.use_spare;
      options.fault_plan = std::make_shared<const FaultPlan>(cls.plan);
      options.deadline_change = cls.deadline_change;
      options.control_override = base_control;
      ExperimentResult vanilla = RunExperiment(trained, options);
      options.control_override = hardened_control;
      ExperimentResult hardened = RunExperiment(trained, options);
      options.control_override.reset();
      vanilla_misses += vanilla.met_deadline ? 0 : 1;
      hardened_misses += hardened.met_deadline ? 0 : 1;
      std::printf("%-9s seed=%llu deadline=%.0fs vanilla=%.0fs (%s) hardened=%.0fs (%s)\n",
                  cls.name, static_cast<unsigned long long>(seed), cls.deadline,
                  vanilla.completion_seconds, vanilla.met_deadline ? "met" : "MISS",
                  hardened.completion_seconds, hardened.met_deadline ? "met" : "MISS");
    }
    EXPECT_LT(hardened_misses, vanilla_misses) << "fault class: " << cls.name;
  }
}

}  // namespace
}  // namespace jockey
