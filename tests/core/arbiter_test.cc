#include "src/core/arbiter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "src/cluster/cluster_simulator.h"
#include "src/core/experiment.h"
#include "src/workload/job_generator.h"

namespace jockey {
namespace {

class ArbiterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    JobShapeSpec spec;
    spec.num_stages = 8;
    spec.num_barriers = 1;
    spec.num_vertices = 400;
    spec.job_median_seconds = 4.0;
    spec.job_p90_seconds = 14.0;
    spec.fastest_stage_p90 = 2.0;
    spec.slowest_stage_p90 = 30.0;
    spec.name = "arb0";
    spec.seed = 71;
    job_a_ = new TrainedJob(TrainJob(GenerateJob(spec)));
    spec.name = "arb1";
    spec.seed = 72;
    spec.num_vertices = 700;
    job_b_ = new TrainedJob(TrainJob(GenerateJob(spec)));
  }
  static void TearDownTestSuite() {
    delete job_a_;
    delete job_b_;
    job_a_ = nullptr;
    job_b_ = nullptr;
  }
  static TrainedJob* job_a_;
  static TrainedJob* job_b_;
};

TrainedJob* ArbiterTest::job_a_ = nullptr;
TrainedJob* ArbiterTest::job_b_ = nullptr;

ClusterConfig ArbiterCluster(uint64_t seed) {
  ClusterConfig config = DefaultExperimentCluster(seed);
  config.background.overload_rate_per_hour = 0.0;
  return config;
}

TEST_F(ArbiterTest, BothJobsMeetDeadlinesUnderSharedBudget) {
  ArbiterConfig config;
  config.total_tokens = 120;
  MultiJobArbiter arbiter(config);
  double deadline_a = SuggestDeadlineSeconds(*job_a_, false);
  double deadline_b = SuggestDeadlineSeconds(*job_b_, false);
  int ia = arbiter.AddJob(job_a_->jockey, DeadlineUtility(deadline_a));
  int ib = arbiter.AddJob(job_b_->jockey, DeadlineUtility(deadline_b));

  ClusterSimulator cluster(ArbiterCluster(5));
  JobSubmission submission;
  submission.controller = arbiter.ControllerFor(ia);
  submission.seed = 100;
  int id_a = cluster.SubmitJob(*job_a_->tmpl, submission);
  submission.controller = arbiter.ControllerFor(ib);
  submission.seed = 101;
  int id_b = cluster.SubmitJob(*job_b_->tmpl, submission);
  cluster.Run();

  EXPECT_TRUE(cluster.result(id_a).finished);
  EXPECT_TRUE(cluster.result(id_b).finished);
  EXPECT_LE(cluster.result(id_a).CompletionSeconds(), deadline_a);
  EXPECT_LE(cluster.result(id_b).CompletionSeconds(), deadline_b);
}

TEST_F(ArbiterTest, AssignmentsRespectBudget) {
  ArbiterConfig config;
  config.total_tokens = 60;
  MultiJobArbiter arbiter(config);
  int ia = arbiter.AddJob(job_a_->jockey,
                          DeadlineUtility(SuggestDeadlineSeconds(*job_a_, true)));
  int ib = arbiter.AddJob(job_b_->jockey,
                          DeadlineUtility(SuggestDeadlineSeconds(*job_b_, true)));

  ClusterSimulator cluster(ArbiterCluster(6));
  JobSubmission submission;
  submission.controller = arbiter.ControllerFor(ia);
  submission.seed = 102;
  int id_a = cluster.SubmitJob(*job_a_->tmpl, submission);
  submission.controller = arbiter.ControllerFor(ib);
  submission.seed = 103;
  int id_b = cluster.SubmitJob(*job_b_->tmpl, submission);
  cluster.Run();

  // At every recorded tick, the sum of grants must stay within the budget.
  auto& ta = cluster.result(id_a).timeline;
  auto& tb = cluster.result(id_b).timeline;
  size_t bi = 0;
  for (const auto& sample_a : ta) {
    while (bi + 1 < tb.size() && tb[bi + 1].time <= sample_a.time) {
      ++bi;
    }
    int total = sample_a.guaranteed + (bi < tb.size() ? tb[bi].guaranteed : 0);
    EXPECT_LE(total, config.total_tokens + 1) << "at t=" << sample_a.time;
  }
}

TEST_F(ArbiterTest, TighterDeadlineGetsMoreTokens) {
  // Same job model registered twice: one with a tight deadline, one loose. Under
  // scarcity the tight job must receive the larger share.
  ArbiterConfig config;
  config.total_tokens = 50;
  MultiJobArbiter arbiter(config);
  double tight = SuggestDeadlineSeconds(*job_a_, true);
  int i_tight = arbiter.AddJob(job_a_->jockey, DeadlineUtility(tight));
  int i_loose = arbiter.AddJob(job_a_->jockey, DeadlineUtility(3.0 * tight));

  ClusterSimulator cluster(ArbiterCluster(7));
  JobSubmission submission;
  submission.use_spare_tokens = false;  // isolate guaranteed-token arbitration
  submission.controller = arbiter.ControllerFor(i_tight);
  submission.seed = 104;
  int id_tight = cluster.SubmitJob(*job_a_->tmpl, submission);
  submission.controller = arbiter.ControllerFor(i_loose);
  submission.seed = 105;
  int id_loose = cluster.SubmitJob(*job_a_->tmpl, submission);
  cluster.Run();

  auto mean_alloc = [](const ClusterRunResult& r) {
    double sum = 0.0;
    for (const auto& s : r.timeline) {
      sum += s.guaranteed;
    }
    return r.timeline.empty() ? 0.0 : sum / static_cast<double>(r.timeline.size());
  };
  EXPECT_GT(mean_alloc(cluster.result(id_tight)), mean_alloc(cluster.result(id_loose)));
  EXPECT_LE(cluster.result(id_tight).CompletionSeconds(), tight);
}

TEST_F(ArbiterTest, ImportanceWeightBreaksTies) {
  ArbiterConfig config;
  config.total_tokens = 40;
  MultiJobArbiter arbiter(config);
  double deadline = SuggestDeadlineSeconds(*job_a_, true);
  int i_vip = arbiter.AddJob(job_a_->jockey, DeadlineUtility(deadline), /*importance=*/10.0);
  int i_std = arbiter.AddJob(job_a_->jockey, DeadlineUtility(deadline), /*importance=*/1.0);

  ClusterSimulator cluster(ArbiterCluster(8));
  JobSubmission submission;
  submission.use_spare_tokens = false;
  submission.controller = arbiter.ControllerFor(i_vip);
  submission.seed = 106;
  int id_vip = cluster.SubmitJob(*job_a_->tmpl, submission);
  submission.controller = arbiter.ControllerFor(i_std);
  submission.seed = 107;
  int id_std = cluster.SubmitJob(*job_a_->tmpl, submission);
  cluster.Run();

  // The important job should finish no later than the standard one.
  EXPECT_LE(cluster.result(id_vip).CompletionSeconds(),
            cluster.result(id_std).CompletionSeconds() * 1.1);
}

TEST_F(ArbiterTest, FinishedJobsReleaseTheirTokens) {
  ArbiterConfig config;
  config.total_tokens = 80;
  MultiJobArbiter arbiter(config);
  double deadline = SuggestDeadlineSeconds(*job_a_, false);
  int ia = arbiter.AddJob(job_a_->jockey, DeadlineUtility(deadline));
  int ib = arbiter.AddJob(job_b_->jockey,
                          DeadlineUtility(SuggestDeadlineSeconds(*job_b_, false)));

  ClusterSimulator cluster(ArbiterCluster(9));
  JobSubmission submission;
  submission.controller = arbiter.ControllerFor(ia);
  submission.seed = 108;
  int id_a = cluster.SubmitJob(*job_a_->tmpl, submission);
  // Job B starts only after a long delay; by then job A may already be done, and B
  // should then see the whole budget.
  submission.controller = arbiter.ControllerFor(ib);
  submission.submit_time = 3600.0 * 3.0;
  submission.seed = 109;
  int id_b = cluster.SubmitJob(*job_b_->tmpl, submission);
  cluster.Run();

  ASSERT_TRUE(cluster.result(id_a).finished);
  ASSERT_TRUE(cluster.result(id_b).finished);
  EXPECT_LT(cluster.result(id_a).trace.finish_time, 3600.0 * 3.0);
  // With A finished, B's assignment is free to use most of the budget when needed;
  // the arbiter's bookkeeping must at least not deadlock or starve B.
  EXPECT_GT(cluster.result(id_b).guaranteed_token_seconds, 0.0);
}

TEST(ArbiterConfigTest, ValidateRejectsInsaneConfigs) {
  ArbiterConfig config;
  EXPECT_EQ(ValidateArbiterConfig(config), "");
  config.total_tokens = 0;
  EXPECT_NE(ValidateArbiterConfig(config), "");
  config = ArbiterConfig();
  config.min_tokens_per_job = 0;
  EXPECT_NE(ValidateArbiterConfig(config), "");
  config = ArbiterConfig();
  config.min_tokens_per_job = config.total_tokens + 1;
  EXPECT_NE(ValidateArbiterConfig(config), "");
  config = ArbiterConfig();
  config.grant_step = 0;
  EXPECT_NE(ValidateArbiterConfig(config), "");
  // Nested control problems surface with the "control." prefix.
  config = ArbiterConfig();
  config.control.hysteresis_alpha = -1.0;
  EXPECT_EQ(ValidateArbiterConfig(config).rfind("control.", 0), 0u);
  // The constructor enforces the same check.
  config = ArbiterConfig();
  config.total_tokens = -5;
  EXPECT_THROW(MultiJobArbiter arbiter(config), std::invalid_argument);
}

TEST_F(ArbiterTest, OverAdmissionThrowsAndBudgetHolds) {
  ArbiterConfig config;
  config.total_tokens = 5;
  config.min_tokens_per_job = 2;
  MultiJobArbiter arbiter(config);
  double deadline = SuggestDeadlineSeconds(*job_a_, true);
  arbiter.AddJob(job_a_->jockey, DeadlineUtility(deadline));
  arbiter.AddJob(job_a_->jockey, DeadlineUtility(deadline));
  // A third job's floor (3 * 2 > 5) cannot be honored: over-admission throws
  // instead of silently driving the water-filling budget negative.
  EXPECT_THROW(arbiter.AddJob(job_a_->jockey, DeadlineUtility(deadline)),
               std::invalid_argument);
  EXPECT_EQ(arbiter.num_jobs(), 2);

  // Near capacity, drive both jobs directly: after every rebalance the granted
  // totals stay within the budget.
  const size_t stages = static_cast<size_t>(job_a_->tmpl->graph.num_stages());
  for (int t = 0; t < 8; ++t) {
    for (int k = 0; k < 2; ++k) {
      JobRuntimeStatus status;
      status.now = 60.0 * t;
      status.elapsed_seconds = 60.0 * t;
      status.frac_complete.assign(stages, std::min(1.0, 0.05 * t));
      int granted = arbiter.ControllerFor(k)->OnTick(status).guaranteed_tokens;
      EXPECT_LE(granted, config.total_tokens);
      const std::vector<int>& assignment = arbiter.last_assignment();
      EXPECT_LE(std::accumulate(assignment.begin(), assignment.end(), 0),
                config.total_tokens)
          << "tick " << t << " job " << k;
    }
  }
}

// Regression (hysteresis-corruption bug): the budget trim used to write the trimmed
// value back into the job's smoothed state, so a transiently contended job's
// trajectory was dragged to the floor one trim at a time and stayed there after the
// contention passed. The trim must only shape the published assignment; once the
// competing job finishes, the squeezed job's next tick returns to its pre-trim
// allocation instead of re-climbing through hysteresis from the floor.
TEST_F(ArbiterTest, TransientContentionDoesNotCorruptHysteresis) {
  ArbiterConfig config;
  // A budget well below two jobs' combined demand, so B's arrival forces a trim.
  config.total_tokens = 12;
  config.control.hysteresis_alpha = 0.05;  // sluggish: a corrupted trajectory would
                                           // need many ticks to recover
  MultiJobArbiter arbiter(config);
  double deadline = SuggestDeadlineSeconds(*job_a_, true);
  int ia = arbiter.AddJob(job_a_->jockey, DeadlineUtility(deadline));
  // The competitor outweighs A ten to one, so during contention the greedy pass
  // funds B first and A's published share must be trimmed below its smoothed level.
  int ib = arbiter.AddJob(job_a_->jockey, DeadlineUtility(deadline), /*importance=*/10.0);

  const size_t stages = static_cast<size_t>(job_a_->tmpl->graph.num_stages());
  auto status_at = [&](double t) {
    JobRuntimeStatus status;
    status.now = t;
    status.elapsed_seconds = t;
    status.frac_complete.assign(stages, 0.05);
    return status;
  };

  // A alone: let its assignment stabilize.
  int stable = 0;
  for (int t = 0; t < 10; ++t) {
    stable = arbiter.ControllerFor(ia)->OnTick(status_at(60.0 * t)).guaranteed_tokens;
  }
  ASSERT_GT(stable, config.min_tokens_per_job);

  // One contended tick: B arrives and adopts its own (heavily weighted) demand; the
  // combined ask overshoots the budget and A is trimmed.
  arbiter.ControllerFor(ib)->OnTick(status_at(660.0));
  const std::vector<int>& assignment = arbiter.last_assignment();
  ASSERT_LE(std::accumulate(assignment.begin(), assignment.end(), 0),
            config.total_tokens);
  int squeezed = assignment[static_cast<size_t>(ia)];
  ASSERT_LT(squeezed, stable);

  // Contention passes. A's very next tick must be back at its pre-trim trajectory:
  // hysteresis state was never touched by the trim, so one tick suffices.
  arbiter.ControllerFor(ib)->OnFinished(700.0);
  int recovered = arbiter.ControllerFor(ia)->OnTick(status_at(720.0)).guaranteed_tokens;
  EXPECT_GE(recovered, stable - 1);
}

// A job's utility can change while the job sits between its own ticks. The next
// rebalance, whichever job's tick runs it, must already solve with the new utility.
TEST_F(ArbiterTest, UtilityChangeAppliesBeforeTheJobTicksAgain) {
  const double deadline = SuggestDeadlineSeconds(*job_a_, true);
  JobRuntimeStatus status;
  status.frac_complete.assign(static_cast<size_t>(job_a_->tmpl->graph.num_stages()), 0.05);
  // A's published share after B's second tick, with or without moving A's deadline
  // far out (so that any allocation meets it) in between.
  auto a_share = [&](bool relax) {
    ArbiterConfig config;
    config.total_tokens = 12;
    config.control.hysteresis_alpha = 1.0;  // publish each solve unsmoothed
    MultiJobArbiter arbiter(config);
    int ia = arbiter.AddJob(job_a_->jockey, DeadlineUtility(deadline));
    int ib = arbiter.AddJob(job_a_->jockey, DeadlineUtility(deadline));
    arbiter.ControllerFor(ia)->OnTick(status);
    arbiter.ControllerFor(ib)->OnTick(status);
    if (relax) {
      arbiter.SetUtility(ia, DeadlineUtility(1000.0 * deadline));
    }
    arbiter.ControllerFor(ib)->OnTick(status);
    return arbiter.last_assignment()[static_cast<size_t>(ia)];
  };
  EXPECT_GT(a_share(false), ArbiterConfig().min_tokens_per_job);
  EXPECT_EQ(a_share(true), ArbiterConfig().min_tokens_per_job);
}

}  // namespace
}  // namespace jockey
