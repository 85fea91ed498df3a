// Golden trace for the multi-job arbiter: one scarce-budget cell of 18 jobs over
// three trained shapes, with importances 0.5 / 1 / 2, a mid-run utility change, and
// both grant steps. Every tick's (job, granted, share) and every job's completion
// time are pinned, with the decision cache off and on. Any change to Rebalance's
// arithmetic, its evaluation order or its caching that alters a single grant
// changes the digest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster_simulator.h"
#include "src/core/arbiter.h"
#include "src/core/experiment.h"
#include "src/core/utility.h"
#include "src/sim/table_cache.h"  // HashBytes: 64-bit FNV-1a
#include "src/workload/job_generator.h"

namespace jockey {
namespace {

constexpr int kShapes = 3;
constexpr int kJobs = 18;
constexpr int kTokens = 54;
// A short control period, so a job's progress bucket repeats across its own ticks
// and the decision cache's memoized winners get served.
constexpr double kControlPeriod = 15.0;
// On job kChangingJob's kChangeTick-th tick, job kChangedJob's deadline doubles:
// the change lands between the changed job's own ticks. (Any shift that keeps the
// job past its deadline at every allocation would move no decision, since the
// utility is linear there.)
constexpr int kChangedJob = 4;
constexpr int kChangingJob = 5;
constexpr int kChangeTick = 6;

// Records every tick's decision into a running FNV-1a and applies the one
// mid-run utility change.
class RecordingController : public JobController {
 public:
  RecordingController(MultiJobArbiter* arbiter, int index, uint64_t* digest,
                      const double* changed_deadline, int* busiest)
      : arbiter_(arbiter),
        index_(index),
        digest_(digest),
        changed_deadline_(changed_deadline),
        busiest_(busiest) {}

  ControlDecision OnTick(const JobRuntimeStatus& status) override {
    if (index_ == kChangingJob && ++ticks_ == kChangeTick) {
      arbiter_->SetUtility(kChangedJob, DeadlineUtility(*changed_deadline_));
    }
    ControlDecision decision = arbiter_->ControllerFor(index_)->OnTick(status);
    *digest_ = HashBytes(&index_, sizeof(index_), *digest_);
    *digest_ = HashBytes(&decision.guaranteed_tokens, sizeof(decision.guaranteed_tokens), *digest_);
    *digest_ = HashBytes(&decision.raw_allocation, sizeof(decision.raw_allocation), *digest_);
    int assigned = 0;
    for (int share : arbiter_->last_assignment()) {
      assigned += share;
    }
    *busiest_ = std::max(*busiest_, assigned);
    return decision;
  }
  void OnFinished(SimTime now) override { arbiter_->ControllerFor(index_)->OnFinished(now); }

 private:
  MultiJobArbiter* arbiter_;
  int index_;
  uint64_t* digest_;
  const double* changed_deadline_;
  int* busiest_;
  int ticks_ = 0;
};

class ArbiterGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    for (int k = 0; k < kShapes; ++k) {
      JobShapeSpec spec;
      spec.name = "arbgold" + std::to_string(k);
      spec.num_stages = 5 + 2 * k;
      spec.num_barriers = 1;
      spec.num_vertices = 250 + 150 * k;
      spec.job_median_seconds = 4.0 + k;
      spec.job_p90_seconds = 14.0 + 4 * k;
      spec.fastest_stage_p90 = 2.0;
      spec.slowest_stage_p90 = 24.0 + 6 * k;
      spec.seed = 610 + static_cast<uint64_t>(k);
      jobs_[k] = new TrainedJob(TrainJob(GenerateJob(spec)));
    }
  }
  static void TearDownTestSuite() {
    for (TrainedJob*& job : jobs_) {
      delete job;
      job = nullptr;
    }
  }

  struct CellResult {
    uint64_t digest = 14695981039346656037ULL;
    std::vector<double> completions;
    int busiest = 0;  // the largest total assignment seen after any tick
    DecisionCacheStats cache;
  };

  static CellResult RunCell(int grant_step, bool decision_cache) {
    ArbiterConfig config;
    config.total_tokens = kTokens;
    config.grant_step = grant_step;
    config.control.enable_decision_cache = decision_cache;
    MultiJobArbiter arbiter(config);
    CellResult result;
    std::vector<std::unique_ptr<RecordingController>> recorders;
    ClusterConfig cluster_config = DefaultExperimentCluster(31);
    cluster_config.background.overload_rate_per_hour = 0.0;
    ClusterSimulator cluster(cluster_config);
    std::vector<int> ids;
    double changed_deadline = 0.0;
    for (int i = 0; i < kJobs; ++i) {
      const TrainedJob& job = *jobs_[i % kShapes];
      const double deadline = SuggestDeadlineSeconds(job, /*tight=*/i % 2 == 0);
      static constexpr double kImportance[] = {0.5, 1.0, 2.0};
      const int index =
          arbiter.AddJob(job.jockey, DeadlineUtility(deadline), kImportance[(i / kShapes) % 3]);
      if (i == kChangedJob) {
        changed_deadline = 2.0 * deadline;
      }
      recorders.push_back(std::make_unique<RecordingController>(
          &arbiter, index, &result.digest, &changed_deadline, &result.busiest));
      JobSubmission submission;
      submission.submit_time = 15.0 * i;
      submission.guaranteed_tokens = 1;
      submission.control_period_seconds = kControlPeriod;
      submission.controller = recorders.back().get();
      submission.seed = 7000 + static_cast<uint64_t>(i);
      ids.push_back(cluster.SubmitJob(*job.tmpl, submission));
    }
    cluster.Run();
    for (int id : ids) {
      EXPECT_TRUE(cluster.result(id).finished) << "job " << id;
      result.completions.push_back(cluster.result(id).CompletionSeconds());
    }
    result.cache = arbiter.cache_stats();
    // The cell really exercises what the digest is meant to guard: the budget
    // binds, and with the cache on both levels serve and the utility change re-keys.
    EXPECT_EQ(result.busiest, kTokens);
    if (decision_cache) {
      EXPECT_GT(result.cache.column_hits, 0);
      EXPECT_GT(result.cache.decision_hits, 0);
      EXPECT_EQ(result.cache.invalidations, 1);
    }
    return result;
  }

  static void ExpectPinned(const CellResult& got, const char* digest,
                           const std::vector<double>& completions) {
    char shown[17];
    std::snprintf(shown, sizeof(shown), "%016llx", static_cast<unsigned long long>(got.digest));
    EXPECT_EQ(std::string(shown), digest);
    ASSERT_EQ(got.completions.size(), completions.size());
    for (size_t j = 0; j < completions.size(); ++j) {
      char value[32];
      std::snprintf(value, sizeof(value), "%.17g", got.completions[j]);
      EXPECT_EQ(got.completions[j], completions[j]) << "job " << j << ": " << value;
    }
  }

  static TrainedJob* jobs_[kShapes];
};

TrainedJob* ArbiterGoldenTest::jobs_[kShapes] = {};

const char kStepOneDigest[] = "bc304a4cdcb71b4e";
const std::vector<double> kStepOneCompletions = {
    196.23889916100671, 437.07200086108793, 1912.7626872494322,
    1914.5894993727682, 1903.134349995795, 1898.5678534494332,
    1853.7846096536052, 1834.3370367748935, 1685.6560086468187,
    1868.4969989681913, 1898.4366976347087, 1956.9345605716985,
    1826.5749035344124, 1783.9124282202981, 1719.7943062105001,
    1733.5190772766819, 1649.9875283813162, 1598.4524406415596,
};
const char kStepThreeDigest[] = "c5783e8db98c8f5f";
const std::vector<double> kStepThreeCompletions = {
    231.95046579548747, 421.36450693822349, 1908.6090037951119,
    1895.778065451633, 1886.1208029664047, 1847.1300896511232,
    1802.3351858165495, 1840.9994918711568, 1716.6931988530184,
    1834.4969162992606, 1865.1488676276379, 1871.939247742604,
    1796.8391323603271, 1748.5331732121977, 1723.8329728778315,
    1696.1275357399948, 1673.0548103631972, 1550.9835437533502,
};

TEST_F(ArbiterGoldenTest, GrantStepOneIsPinnedWithCacheOffAndOn) {
  ExpectPinned(RunCell(1, false), kStepOneDigest, kStepOneCompletions);
  ExpectPinned(RunCell(1, true), kStepOneDigest, kStepOneCompletions);
}

TEST_F(ArbiterGoldenTest, GrantStepThreeIsPinnedWithCacheOffAndOn) {
  ExpectPinned(RunCell(3, false), kStepThreeDigest, kStepThreeCompletions);
  ExpectPinned(RunCell(3, true), kStepThreeDigest, kStepThreeCompletions);
}

}  // namespace
}  // namespace jockey
