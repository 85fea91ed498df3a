// Decision cache (decision_cache.h): the plateau analysis and warm-start formula,
// the cache container's bookkeeping, and the controller-level contract — cached and
// uncached controllers make identical decisions tick for tick, while utility changes
// and fault-window transitions drop memoized decisions instead of serving stale ones.

#include "src/core/decision_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "src/core/completion_model.h"
#include "src/core/control_loop.h"
#include "src/core/utility.h"
#include "src/dag/profile.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
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

// Remaining work is exactly 6000/a seconds; `buckets` progress buckets so cached
// columns are exercised across bucket transitions.
std::shared_ptr<CompletionTable> DivisibleWorkTable(int max_tokens = 20, int buckets = 4) {
  std::vector<int> grid;
  for (int a = 1; a <= max_tokens; ++a) {
    grid.push_back(a);
  }
  auto table = std::make_shared<CompletionTable>(grid, buckets);
  for (int b = 0; b < buckets; ++b) {
    double p = (b + 0.5) / buckets;
    for (int ai = 0; ai < max_tokens; ++ai) {
      table->AddSample(p, ai, (1.0 - p) * 6000.0 / grid[static_cast<size_t>(ai)]);
    }
  }
  return table;
}

ControlLoopConfig CachedConfig() {
  ControlLoopConfig config;
  config.slack = 1.0;
  config.hysteresis_alpha = 0.2;
  config.dead_zone_seconds = 0.0;
  config.prediction_quantile = 1.0;
  config.min_tokens = 1;
  config.max_tokens = 20;
  config.enable_decision_cache = true;
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

TEST(WarmStartAllocationTest, InvertsTheDeadlineBound) {
  // cp 600s, 6000s of work, 1800s deadline: (6000-600)/(1800-600) = 4.5 -> 5.
  EXPECT_EQ(WarmStartAllocation(600.0, 6000.0, 1800.0, 1, 100), 5);
  // Exactly divisible: (6000-600)/(1500-600)= 6, no spurious round-up.
  EXPECT_EQ(WarmStartAllocation(600.0, 6000.0, 1500.0, 1, 100), 6);
  // Clamped to the token range on both sides.
  EXPECT_EQ(WarmStartAllocation(10.0, 20.0, 1e9, 3, 100), 3);
  EXPECT_EQ(WarmStartAllocation(0.0, 1e9, 1.0, 1, 100), 100);
  // A deadline at (or under) the critical path cannot be met by parallelism at
  // all — ask for everything.
  EXPECT_EQ(WarmStartAllocation(1800.0, 6000.0, 1800.0, 1, 100), 100);
  EXPECT_EQ(WarmStartAllocation(1800.0, 6000.0, 900.0, 1, 100), 100);
}

TEST(AnalyzePlateauTest, DeadlineUtilityIsUsable) {
  UtilityPlateau plateau = AnalyzePlateau(DeadlineUtility(1200.0));
  EXPECT_TRUE(plateau.usable);
  EXPECT_DOUBLE_EQ(plateau.max_utility, 1.0);
  EXPECT_DOUBLE_EQ(plateau.plateau_end, 1200.0);
  EXPECT_DOUBLE_EQ(plateau.max_abs_utility, 1000.0);
}

TEST(AnalyzePlateauTest, RejectsRecoveringUtility) {
  // Utility that rises again after a dip: a past loser could win later, so level 2
  // must stay off.
  UtilityPlateau plateau =
      AnalyzePlateau(PiecewiseLinear({{0.0, 1.0}, {100.0, 0.0}, {200.0, 0.5}}));
  EXPECT_FALSE(plateau.usable);
}

TEST(AnalyzePlateauTest, RejectsOversizedMagnitudes) {
  // Magnitudes beyond the cap would outgrow the rounding margins.
  UtilityPlateau plateau =
      AnalyzePlateau(PiecewiseLinear({{0.0, 1.0}, {100.0, -2.0e4}}));
  EXPECT_FALSE(plateau.usable);
  EXPECT_TRUE(AnalyzePlateau(PiecewiseLinear({{0.0, 1.0}, {100.0, -9.0e3}})).usable);
}

TEST(AnalyzePlateauTest, ConstantUtilityHasUnboundedPlateau) {
  UtilityPlateau plateau = AnalyzePlateau(PiecewiseLinear({{0.0, 2.0}, {100.0, 2.0}}));
  EXPECT_TRUE(plateau.usable);
  EXPECT_DOUBLE_EQ(plateau.max_utility, 2.0);
  EXPECT_TRUE(std::isinf(plateau.plateau_end));
}

TEST(DecisionCacheTest, RekeyDropsStateAndCountsInvalidation) {
  DecisionCache cache;
  UtilityPlateau plateau = AnalyzePlateau(DeadlineUtility(1200.0));
  EXPECT_FALSE(cache.Rekey(7, 4, plateau));  // first key: nothing to drop
  cache.StoreColumn(1, {3.0, 2.0, 1.0});
  cache.StoreDecision(1, DecisionCache::Decision{5, 100.0, 60.0});
  ASSERT_NE(cache.FindColumn(1), nullptr);
  EXPECT_FALSE(cache.Rekey(7, 4, plateau));  // same key: no-op
  ASSERT_NE(cache.FindColumn(1), nullptr);
  EXPECT_TRUE(cache.Rekey(8, 4, plateau));  // new fingerprint: dropped
  EXPECT_EQ(cache.FindColumn(1), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1);
}

TEST(DecisionCacheTest, FindDecisionEnforcesThePlateauRule) {
  DecisionCache cache;
  cache.Rekey(7, 4, AnalyzePlateau(DeadlineUtility(1200.0)));
  // Winner predicted to land at elapsed + 1.0 * 900 seconds.
  cache.StoreDecision(2, DecisionCache::Decision{5, 900.0, 120.0});
  // Valid: made earlier, 180 + 900 = 1080 <= 1200.
  ASSERT_NE(cache.FindDecision(2, 180.0, 1.0), nullptr);
  EXPECT_EQ(cache.FindDecision(2, 180.0, 1.0)->raw, 5);
  // Different bucket: miss.
  EXPECT_EQ(cache.FindDecision(1, 180.0, 1.0), nullptr);
  // Before the decision was made: miss (the scan's state was different then).
  EXPECT_EQ(cache.FindDecision(2, 60.0, 1.0), nullptr);
  // Past the plateau: 400 + 900 > 1200, the winner's utility is off the maximum.
  EXPECT_EQ(cache.FindDecision(2, 400.0, 1.0), nullptr);
  // Slack inflates the estimate past the plateau too.
  EXPECT_EQ(cache.FindDecision(2, 180.0, 1.5), nullptr);
  // InvalidateDecisions drops it; columns are untouched.
  cache.StoreColumn(2, {1.0});
  EXPECT_TRUE(cache.InvalidateDecisions());
  EXPECT_EQ(cache.FindDecision(2, 180.0, 1.0), nullptr);
  EXPECT_NE(cache.FindColumn(2), nullptr);
}

// The hard rule, at the controller level: with the cache on, every tick's decision
// equals the uncached controller's, while the cache actually serves hits.
TEST(DecisionCacheControllerTest, CachedControllerMatchesUncachedTickForTick) {
  JobGraph g = OneStage();
  JobProfile p = OneStageProfile(g);
  ControlLoopConfig uncached_config = CachedConfig();
  uncached_config.enable_decision_cache = false;
  JockeyController cached(OneStageIndicator(g, p), DivisibleWorkTable(),
                          DeadlineUtility(4000.0), CachedConfig());
  JockeyController uncached(OneStageIndicator(g, p), DivisibleWorkTable(),
                            DeadlineUtility(4000.0), uncached_config);
  for (int t = 0; t < 60; ++t) {
    JobRuntimeStatus status = StatusAt(60.0 * t, std::min(1.0, t / 60.0));
    ControlDecision a = cached.OnTick(status);
    ControlDecision b = uncached.OnTick(status);
    ASSERT_EQ(a.guaranteed_tokens, b.guaranteed_tokens) << "tick " << t;
    ASSERT_DOUBLE_EQ(a.raw_allocation, b.raw_allocation) << "tick " << t;
  }
  EXPECT_GT(cached.cache_stats().column_hits, 0);
  EXPECT_GT(cached.cache_stats().decision_hits, 0);
  EXPECT_EQ(cached.cache_stats().bypasses, 0);
}

// The same rule on a catalog job and a fleet: 64 controllers over catalog job C's
// table, deadlines and progress ramps staggered so the replay crosses many progress
// buckets and utility shapes, each cached controller ticked in lockstep with an
// uncached twin.
TEST(DecisionCacheControllerTest, CatalogFleetMatchesUncachedTickForTick) {
  JobTemplate tmpl = GenerateJob(JobSpecC());
  Rng rng(3);
  RunTrace trace;
  for (int s = 0; s < tmpl.graph.num_stages(); ++s) {
    for (int i = 0; i < tmpl.graph.stage(s).num_tasks; ++i) {
      double d = tmpl.runtime[static_cast<size_t>(s)].SampleSeconds(rng);
      trace.tasks.push_back({{s, i}, 0.0, 1.0, 1.0 + d, 0, 0.0});
    }
  }
  trace.finish_time = 1.0;
  JobProfile profile = JobProfile::FromTrace(tmpl.graph, trace);
  auto indicator = std::shared_ptr<const ProgressIndicator>(
      MakeIndicator(IndicatorKind::kTotalWorkWithQ, tmpl.graph, profile));
  auto table = std::make_shared<CompletionTable>(
      BuildCompletionTable(tmpl.graph, profile, *indicator, CompletionModelConfig()));
  constexpr int kControllers = 64;
  constexpr int kTicks = 200;
  const size_t stages = static_cast<size_t>(tmpl.graph.num_stages());

  DecisionCacheStats stats;
  for (int c = 0; c < kControllers; ++c) {
    ControlLoopConfig cached_config;
    cached_config.enable_decision_cache = true;
    PiecewiseLinear utility = DeadlineUtility(3600.0 + 120.0 * (c % 8));
    JockeyController cached(indicator, table, utility, cached_config);
    JockeyController uncached(indicator, table, utility, ControlLoopConfig());
    JobRuntimeStatus status;
    const double ramp_ticks = static_cast<double>(kTicks + 20 * (c % 5));
    for (int t = 0; t < kTicks; ++t) {
      status.elapsed_seconds = 60.0 * (t + 1);
      status.frac_complete.assign(stages, std::min(1.0, (t + 1) / ramp_ticks));
      ControlDecision a = cached.OnTick(status);
      ControlDecision b = uncached.OnTick(status);
      ASSERT_EQ(a.guaranteed_tokens, b.guaranteed_tokens) << "controller " << c << " tick " << t;
      ASSERT_EQ(std::bit_cast<uint64_t>(a.raw_allocation),
                std::bit_cast<uint64_t>(b.raw_allocation))
          << "controller " << c << " tick " << t << ": " << a.raw_allocation << " vs "
          << b.raw_allocation;
    }
    stats.column_hits += cached.cache_stats().column_hits;
    stats.decision_hits += cached.cache_stats().decision_hits;
  }
  EXPECT_GT(stats.column_hits, 0);
  EXPECT_GT(stats.decision_hits, 0);
}

TEST(DecisionCacheControllerTest, SetUtilityInvalidatesMemoizedDecisions) {
  JobGraph g = OneStage();
  JobProfile p = OneStageProfile(g);
  ControlLoopConfig uncached_config = CachedConfig();
  uncached_config.enable_decision_cache = false;
  JockeyController cached(OneStageIndicator(g, p), DivisibleWorkTable(),
                          DeadlineUtility(4000.0), CachedConfig());
  JockeyController uncached(OneStageIndicator(g, p), DivisibleWorkTable(),
                            DeadlineUtility(4000.0), uncached_config);
  for (int t = 0; t < 5; ++t) {
    JobRuntimeStatus status = StatusAt(60.0 * t, 0.02 * t);
    ASSERT_EQ(cached.OnTick(status).guaranteed_tokens,
              uncached.OnTick(status).guaranteed_tokens);
  }
  ASSERT_GT(cached.cache_stats().decision_hits, 0);
  // A tighter deadline re-keys the cache: the next tick may not serve a decision
  // memoized against the old utility.
  cached.SetUtility(DeadlineUtility(1500.0));
  uncached.SetUtility(DeadlineUtility(1500.0));
  EXPECT_GE(cached.cache_stats().invalidations, 1);
  for (int t = 5; t < 12; ++t) {
    JobRuntimeStatus status = StatusAt(60.0 * t, 0.02 * t);
    ASSERT_EQ(cached.OnTick(status).guaranteed_tokens,
              uncached.OnTick(status).guaranteed_tokens)
        << "tick " << t;
  }
}

// Crossing a table-fault window: the cache must bypass inside the window (cached
// columns hold healthy lookups; the window corrupts them) and must drop memoized
// decisions on entry — all while decisions track a twin uncached controller
// exposed to the same fault.
TEST(DecisionCacheControllerTest, FaultWindowBypassesAndInvalidates) {
  JobGraph g = OneStage();
  JobProfile p = OneStageProfile(g);
  FaultPlan plan(3);
  plan.Add(FaultPlan::TableFault(150.0, 330.0, 0.05));
  FaultInjector injector(plan);
  ControlLoopConfig uncached_config = CachedConfig();
  uncached_config.enable_decision_cache = false;
  JockeyController cached(OneStageIndicator(g, p), DivisibleWorkTable(),
                          DeadlineUtility(4000.0), CachedConfig());
  JockeyController uncached(OneStageIndicator(g, p), DivisibleWorkTable(),
                            DeadlineUtility(4000.0), uncached_config);
  cached.set_fault_injector(&injector);
  uncached.set_fault_injector(&injector);
  for (int t = 0; t < 10; ++t) {
    JobRuntimeStatus status = StatusAt(60.0 * t, 0.01 * t);
    ASSERT_EQ(cached.OnTick(status).guaranteed_tokens,
              uncached.OnTick(status).guaranteed_tokens)
        << "tick " << t;
  }
  // Ticks at t=180 and t=300 fall inside the window: bypassed.
  EXPECT_GE(cached.cache_stats().bypasses, 2);
  // Entering the window drops the memoized decisions; leaving it finds the cache
  // already empty (bypassed ticks store nothing), so only the entry edge counts.
  EXPECT_EQ(cached.cache_stats().invalidations, 1);
}

// Regression (blackout-baseline bug): a blackout spanning the very first tick gap
// used to be learned as the control period itself, masking the blackout. With the
// harness's control period plumbed in, the first observed gap is recognized as a
// blackout and the controller snaps past hysteresis.
TEST(BlackoutBaselineTest, BlackoutSpanningFirstGapIsDetectedWithPeriodHint) {
  JobGraph g = OneStage();
  JobProfile p = OneStageProfile(g);
  ControlLoopConfig config;
  config.slack = 1.0;
  config.hysteresis_alpha = 0.2;
  config.dead_zone_seconds = 0.0;
  config.min_tokens = 1;
  config.max_tokens = 20;
  config.enable_degraded_mode = true;
  config.control_period_hint_seconds = 60.0;
  ControlLoopConfig no_hint = config;
  no_hint.control_period_hint_seconds = 0.0;
  MetricsRegistry metrics;
  JockeyController hinted(OneStageIndicator(g, p), DivisibleWorkTable(),
                          DeadlineUtility(1200.0), config);
  hinted.set_observer(Observer(nullptr, &metrics));
  JockeyController unhinted(OneStageIndicator(g, p), DivisibleWorkTable(),
                            DeadlineUtility(1200.0), no_hint);

  // First tick at t=0, then nothing until t=1000 — the blackout swallowed the very
  // first gap, so the learned minimum gap *is* the blackout. Grants track requests
  // exactly so grant compensation stays out of the picture.
  ControlDecision hinted_after;
  ControlDecision unhinted_after;
  for (JockeyController* c : {&hinted, &unhinted}) {
    int granted = c->OnTick(StatusAt(0.0, 0.0)).guaranteed_tokens;
    ControlDecision after = c->OnTick(StatusAt(1000.0, 0.02, granted));
    (c == &hinted ? hinted_after : unhinted_after) = after;
  }
  // Badly behind schedule after the gap, the raw ask far exceeds the smoothed
  // level; only the hinted controller recognizes the gap as a blackout and snaps.
  EXPECT_EQ(hinted_after.guaranteed_tokens,
            static_cast<int>(std::ceil(hinted_after.raw_allocation)));
  EXPECT_GT(hinted_after.guaranteed_tokens, unhinted_after.guaranteed_tokens);
  EXPECT_GE(metrics.CounterValue("control.degraded.blackout_catchup"), 1);
}

// Warm start: a seeded controller's a-priori allocation is the seed (clamped), and
// its first-tick hysteresis starts from it instead of the cold raw scan.
TEST(WarmStartControllerTest, SeededControllerStartsFromTheSeed) {
  JobGraph g = OneStage();
  JobProfile p = OneStageProfile(g);
  ControlLoopConfig config = CachedConfig();
  config.enable_decision_cache = false;
  config.warm_start_tokens = 12;
  JockeyController c(OneStageIndicator(g, p), DivisibleWorkTable(),
                     DeadlineUtility(1200.0), config);
  EXPECT_EQ(c.InitialAllocation(), 12);
  // Raw wants 5 (6000/a <= 1200); smoothing starts at the seed and moves toward
  // raw by alpha, instead of adopting raw outright on the first tick.
  ControlDecision d = c.OnTick(StatusAt(0.0, 0.0));
  EXPECT_DOUBLE_EQ(d.raw_allocation, 5.0);
  EXPECT_EQ(d.guaranteed_tokens, 11);  // ceil(12 + 0.2 * (5 - 12)) = ceil(10.6)
  // Out-of-range seeds clamp to the token range.
  config.warm_start_tokens = 500;
  JockeyController clamped(OneStageIndicator(g, p), DivisibleWorkTable(),
                           DeadlineUtility(1200.0), config);
  EXPECT_EQ(clamped.InitialAllocation(), 20);
}

}  // namespace
}  // namespace jockey
