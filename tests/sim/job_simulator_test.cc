#include "src/sim/job_simulator.h"

#include <gtest/gtest.h>

#include "src/util/stats.h"
#include "src/workload/job_generator.h"

namespace jockey {
namespace {

// A profile with fixed task runtimes makes simulated completion times exact.
JobProfile FixedProfile(const JobGraph& graph, double task_seconds) {
  JobProfile profile;
  RunTrace trace;
  trace.submit_time = 0.0;
  double t = 0.0;
  for (int s = 0; s < graph.num_stages(); ++s) {
    for (int i = 0; i < graph.stage(s).num_tasks; ++i) {
      trace.tasks.push_back({{s, i}, t, t, t + task_seconds, 0, 0.0});
      t += task_seconds;
    }
  }
  trace.finish_time = t;
  return JobProfile::FromTrace(graph, trace);
}

JobGraph Chain(int stages, int tasks_per_stage, bool barriers) {
  std::vector<StageSpec> specs(static_cast<size_t>(stages));
  for (int s = 0; s < stages; ++s) {
    specs[static_cast<size_t>(s)].name.append("s").append(std::to_string(s));
    specs[static_cast<size_t>(s)].num_tasks = tasks_per_stage;
    if (s > 0) {
      specs[static_cast<size_t>(s)].inputs.push_back(
          {s - 1, barriers ? CommPattern::kAllToAll : CommPattern::kOneToOne});
    }
  }
  return JobGraph("chain", std::move(specs));
}

JobSimulatorConfig NoNoiseConfig() {
  JobSimulatorConfig config;
  config.inject_failures = false;
  config.init_latency_cap_seconds = 0.0;
  return config;
}

TEST(JobSimulatorTest, SingleStageFullParallelismTakesOneTaskTime) {
  JobGraph g = Chain(1, 10, false);
  JobProfile p = FixedProfile(g, 5.0);
  JobSimulator sim(g, p, NoNoiseConfig());
  Rng rng(1);
  SimRunResult r = sim.Run(10, rng);
  EXPECT_DOUBLE_EQ(r.completion_seconds, 5.0);
}

TEST(JobSimulatorTest, SingleStageSerializedByAllocation) {
  JobGraph g = Chain(1, 10, false);
  JobProfile p = FixedProfile(g, 5.0);
  JobSimulator sim(g, p, NoNoiseConfig());
  Rng rng(1);
  // 2 tokens, 10 tasks of 5s: 5 waves of 2 tasks = 25s.
  SimRunResult r = sim.Run(2, rng);
  EXPECT_DOUBLE_EQ(r.completion_seconds, 25.0);
}

TEST(JobSimulatorTest, BarrierChainSumsStageSpans) {
  JobGraph g = Chain(3, 4, /*barriers=*/true);
  JobProfile p = FixedProfile(g, 2.0);
  JobSimulator sim(g, p, NoNoiseConfig());
  Rng rng(1);
  // Each stage is one 2s wave at allocation >= 4; barriers serialize stages.
  SimRunResult r = sim.Run(100, rng);
  EXPECT_DOUBLE_EQ(r.completion_seconds, 6.0);
}

TEST(JobSimulatorTest, BarrierStageStartsAfterProducerEnds) {
  JobGraph g = Chain(2, 6, /*barriers=*/true);
  JobProfile p = FixedProfile(g, 3.0);
  JobSimulator sim(g, p, NoNoiseConfig());
  Rng rng(2);
  SimRunResult r = sim.Run(3, rng);
  EXPECT_GE(r.stage_first_start[1], r.stage_last_end[0]);
}

TEST(JobSimulatorTest, PipelineOverlapsStages) {
  JobGraph g = Chain(2, 6, /*barriers=*/false);
  JobProfile p = FixedProfile(g, 3.0);
  JobSimulator sim(g, p, NoNoiseConfig());
  Rng rng(2);
  SimRunResult r = sim.Run(4, rng);
  // One-to-one consumers start while the producer stage still runs.
  EXPECT_LT(r.stage_first_start[1], r.stage_last_end[0]);
}

TEST(JobSimulatorTest, ProgressCallbackReportsMonotoneFractions) {
  JobTemplate tmpl = GenerateJob(JobSpecA());
  // Synthesize a profile from the template's own models via a fake trace.
  Rng gen(3);
  RunTrace trace;
  for (int s = 0; s < tmpl.graph.num_stages(); ++s) {
    for (int i = 0; i < tmpl.graph.stage(s).num_tasks; ++i) {
      double d = tmpl.runtime[static_cast<size_t>(s)].SampleSeconds(gen);
      trace.tasks.push_back({{s, i}, 0.0, 1.0, 1.0 + d, 0, 0.0});
    }
  }
  trace.finish_time = 1000.0;
  JobProfile profile = JobProfile::FromTrace(tmpl.graph, trace);

  JobSimulator sim(tmpl.graph, profile);
  Rng rng(4);
  std::vector<double> last(static_cast<size_t>(tmpl.graph.num_stages()), 0.0);
  double last_time = -1.0;
  int calls = 0;
  SimRunResult r = sim.Run(30, rng, [&](SimTime now, const std::vector<double>& frac) {
    ++calls;
    EXPECT_GT(now, last_time);
    last_time = now;
    ASSERT_EQ(frac.size(), last.size());
    for (size_t s = 0; s < frac.size(); ++s) {
      EXPECT_GE(frac[s], last[s]);
      EXPECT_LE(frac[s], 1.0);
      last[s] = frac[s];
    }
  });
  EXPECT_GT(calls, 2);
  EXPECT_GT(r.completion_seconds, 0.0);
}

TEST(JobSimulatorTest, DeterministicForIdenticalRngState) {
  JobGraph g = Chain(4, 8, false);
  JobProfile p = FixedProfile(g, 2.5);
  JobSimulator sim(g, p);
  Rng r1(5);
  Rng r2(5);
  EXPECT_DOUBLE_EQ(sim.Run(6, r1).completion_seconds, sim.Run(6, r2).completion_seconds);
}

// Property: more tokens never slow the job down (with deterministic task times).
class AllocationMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(AllocationMonotoneTest, MoreTokensNeverSlower) {
  JobGraph g = Chain(3, 12, GetParam() % 2 == 0);
  JobProfile p = FixedProfile(g, 4.0);
  JobSimulator sim(g, p, NoNoiseConfig());
  double prev = 1e18;
  for (int a : {1, 2, 4, 8, 16, 36}) {
    Rng rng(static_cast<uint64_t>(GetParam()));
    double t = sim.Run(a, rng).completion_seconds;
    EXPECT_LE(t, prev + 1e-9) << "allocation " << a;
    prev = t;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, AllocationMonotoneTest, ::testing::Range(0, 4));

TEST(JobSimulatorTest, FailuresExtendCompletion) {
  JobGraph g = Chain(2, 20, true);
  JobProfile clean = FixedProfile(g, 3.0);
  // Same profile with a high failure probability.
  JobProfile faulty = clean;
  {
    // Rebuild with failure probability via a trace carrying failed attempts.
    RunTrace trace;
    for (int s = 0; s < g.num_stages(); ++s) {
      for (int i = 0; i < g.stage(s).num_tasks; ++i) {
        trace.tasks.push_back({{s, i}, 0.0, 0.0, 3.0, /*failed_attempts=*/1, 1.0});
      }
    }
    trace.finish_time = 100.0;
    faulty = JobProfile::FromTrace(g, trace);
  }
  JobSimulatorConfig config;
  config.init_latency_cap_seconds = 0.0;
  JobSimulator sim_clean(g, clean, config);
  JobSimulator sim_faulty(g, faulty, config);
  RunningStats clean_stats;
  RunningStats faulty_stats;
  for (uint64_t s = 0; s < 20; ++s) {
    Rng r1(s);
    Rng r2(s);
    clean_stats.Add(sim_clean.Run(5, r1).completion_seconds);
    faulty_stats.Add(sim_faulty.Run(5, r2).completion_seconds);
  }
  EXPECT_GT(faulty_stats.mean(), clean_stats.mean());
}

}  // namespace
}  // namespace jockey
