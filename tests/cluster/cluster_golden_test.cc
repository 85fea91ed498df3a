// Golden trace for the cluster simulator: one busy cell whose event stream and
// per-job completion times are pinned byte for byte. The cell is built to drive
// every scheduling path at once — SuperHigh and normal guarantees (with a
// non-integer pressure factor, so the utilization sum's floating-point order
// matters), guaranteed-only jobs, controllers that shrink and regrow guarantees
// (demotion and promotion), speculation, machine failures plus a correlated
// burst, and background volatility high enough to evict spare work. Any change to
// the scheduler's bookkeeping that alters a decision, a draw, or an event order
// changes the digest.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "src/cluster/cluster_simulator.h"
#include "src/fault/fault_injector.h"
#include "src/obs/jsonl.h"
#include "src/sim/table_cache.h"  // HashString: 64-bit FNV-1a
#include "src/workload/job_generator.h"

namespace jockey {
namespace {

constexpr int kJobs = 40;

JobTemplate Shape(int k) {
  JobShapeSpec spec;
  spec.name = "golden" + std::to_string(k);
  spec.num_stages = 4 + k;
  spec.num_barriers = 1;
  spec.num_vertices = 120 + 60 * k;
  spec.job_median_seconds = 4.0 + k;
  spec.job_p90_seconds = 14.0 + 3 * k;
  spec.fastest_stage_p90 = 2.0;
  spec.slowest_stage_p90 = 25.0 + 5 * k;
  spec.seed = 900 + static_cast<uint64_t>(k);
  JobTemplate job = GenerateJob(spec);
  for (auto& model : job.runtime) {
    model.outlier_prob = 0.08;  // stragglers for the speculation path
  }
  return job;
}

ClusterConfig BusyCell() {
  ClusterConfig config;
  config.num_machines = 30;
  config.slots_per_machine = 4;
  config.seed = 20260;
  config.machine_failure_rate_per_hour = 3.0;
  config.machine_recovery_seconds = 120.0;
  config.enable_speculation = true;
  config.speculation_check_period_seconds = 20.0;
  config.superhigh_pressure_factor = 1.7;
  config.background.mean_utilization = 0.6;
  config.background.volatility = 0.2;
  config.background.update_period_seconds = 15.0;
  return config;
}

// Cycles the guarantee through a fixed ladder, one step per tick: shrinks below
// what is running (demotion) and regrows above it (promotion).
class LadderController : public JobController {
 public:
  explicit LadderController(int offset) : step_(offset) {}
  ControlDecision OnTick(const JobRuntimeStatus& /*status*/) override {
    static constexpr int kLadder[] = {14, 3, 9, 1, 18, 6};
    const int tokens = kLadder[step_++ % 6];
    return {tokens, static_cast<double>(tokens)};
  }

 private:
  int step_;
};

TEST(ClusterGoldenTest, BusyCellTraceAndCompletionsArePinned) {
  std::vector<JobTemplate> shapes;
  for (int k = 0; k < 3; ++k) {
    shapes.push_back(Shape(k));
  }
  FaultPlan plan(7);
  plan.Add(FaultPlan::MachineBurst(250.0, 400.0, 4, 8));
  FaultInjector injector(plan);
  std::vector<LadderController> controllers;
  controllers.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    controllers.emplace_back(i);
  }

  std::ostringstream buffer;
  JsonlSink sink(buffer);
  ClusterSimulator cluster(BusyCell());
  cluster.set_observer(Observer(&sink, nullptr));
  cluster.set_fault_injector(&injector);
  for (int i = 0; i < kJobs; ++i) {
    JobSubmission s;
    s.submit_time = 10.0 * i;
    s.guaranteed_tokens = 4 + i % 7;
    s.max_guaranteed_tokens = 20;
    s.use_spare_tokens = i % 5 != 2;
    s.priority = i % 4 == 1 ? PriorityClass::kSuperHigh : PriorityClass::kNormal;
    s.controller = i % 2 == 0 ? &controllers[static_cast<size_t>(i)] : nullptr;
    s.control_period_seconds = 25.0;
    s.input_scale = 0.9 + 0.01 * i;
    s.seed = 4000 + static_cast<uint64_t>(i);
    cluster.SubmitJob(shapes[static_cast<size_t>(i % 3)], s);
  }
  cluster.Run();

  // The cell really exercises the paths the digest is meant to guard.
  int evictions = 0;
  int machine_kills = 0;
  int speculative = 0;
  for (int i = 0; i < kJobs; ++i) {
    const ClusterRunResult& r = cluster.result(i);
    ASSERT_TRUE(r.finished) << "job " << i;
    evictions += r.evictions;
    machine_kills += r.machine_failure_kills;
    speculative += r.speculative_launched;
  }
  EXPECT_GT(evictions, 0);
  EXPECT_GT(machine_kills, 0);
  EXPECT_GT(speculative, 0);
  const std::string trace = buffer.str();
  EXPECT_NE(trace.find("\"fault_injected\""), std::string::npos);
  EXPECT_NE(trace.find("\"allocation_change\""), std::string::npos);

  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(HashString(trace)));
  EXPECT_EQ(std::string(digest), "7bd4c7dcc3fd1bfe") << trace.size() << " bytes";

  static constexpr double kCompletionSeconds[kJobs] = {
      64.271458691471381, 220.09676292201391, 575.41846663479646,
      96.315375965332436, 364.60090173570308, 362.56315319869913,
      234.24889136177984, 765.06247053519951, 686.63611039798832,
      262.70558848606186, 472.26023068443999, 678.3591874269415,
      468.93867881460221, 249.08837350451483, 880.66749803676498,
      558.65538726725879, 572.00702502856359, 518.71811407978987,
      509.32711218912948, 718.78064632998928, 861.76821364194643,
      393.22832388723828, 691.32130160221072, 986.8414885006307,
      659.73783738122279, 377.25138143146467, 924.96301305504676,
      567.39167837179411, 790.85840685019821, 812.66890552516816,
      681.10219039558422, 834.40003363698042, 1094.8096984457873,
      201.23569672844962, 909.30144481324987, 1230.8290227885336,
      809.93224769204744, 454.20202389216661, 1098.0005946309514,
      719.72156979265787,
  };
  for (int i = 0; i < kJobs; ++i) {
    const double got = cluster.result(i).CompletionSeconds();
    char shown[32];
    std::snprintf(shown, sizeof(shown), "%.17g", got);
    EXPECT_EQ(got, kCompletionSeconds[i]) << "job " << i << ": " << shown;
  }
}

}  // namespace
}  // namespace jockey
