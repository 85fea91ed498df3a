// The scoped hierarchical profiler: exact path-keyed counts, deterministic
// aggregation order, the disabled no-op contract and its cost budget, Reset, early
// Close, and the cross-thread table merge.

#include "src/obs/prof/profiler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/completion_model.h"
#include "src/core/control_loop.h"
#include "src/core/utility.h"
#include "src/dag/profile.h"
#include "src/workload/job_generator.h"

namespace jockey {
namespace prof {
namespace {

// Every test owns the process-wide profiler state for its duration.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Reset();
    SetEnabled(true);
  }
  void TearDown() override {
    SetEnabled(false);
    Reset();
  }
};

const ScopeStat* Find(const std::vector<ScopeStat>& stats, const std::string& path) {
  for (const ScopeStat& s : stats) {
    if (s.path == path) {
      return &s;
    }
  }
  return nullptr;
}

TEST_F(ProfilerTest, NestingBuildsSlashJoinedPathsWithExactCounts) {
  for (int i = 0; i < 3; ++i) {
    Scope tick("tick");
    {
      Scope inner("predict");
    }
    {
      Scope inner("predict");
    }
    Scope other("realloc");
  }
  std::vector<ScopeStat> stats = Snapshot();
  ASSERT_EQ(stats.size(), 3u);
  // Sorted by path: deterministic row order.
  EXPECT_EQ(stats[0].path, "tick");
  EXPECT_EQ(stats[1].path, "tick/predict");
  EXPECT_EQ(stats[2].path, "tick/realloc");
  EXPECT_EQ(stats[0].count, 3);
  EXPECT_EQ(stats[1].count, 6);
  EXPECT_EQ(stats[2].count, 3);
  for (const ScopeStat& s : stats) {
    EXPECT_GE(s.total_ns, 0) << s.path;
    EXPECT_GE(s.max_ns, 0) << s.path;
    EXPECT_LE(s.max_ns, s.total_ns) << s.path;
  }
}

TEST_F(ProfilerTest, CloseIsIdempotentAndEndsTheRegionForSiblings) {
  {
    Scope outer("outer");
    Scope a("first");
    a.Close();
    a.Close();  // idempotent: no double-record
    Scope b("second");  // sibling of "first", not its child
  }
  std::vector<ScopeStat> stats = Snapshot();
  EXPECT_NE(Find(stats, "outer/first"), nullptr);
  EXPECT_NE(Find(stats, "outer/second"), nullptr);
  EXPECT_EQ(Find(stats, "outer/first/second"), nullptr);
  EXPECT_EQ(Find(stats, "outer/first")->count, 1);
}

TEST_F(ProfilerTest, DisabledScopesRecordNothing) {
  SetEnabled(false);
  {
    Scope s("invisible");
  }
  EXPECT_TRUE(Snapshot().empty());
  // Enabling mid-scope must not record the half-open region either.
  Scope open("half");
  SetEnabled(true);
  open.Close();
  EXPECT_TRUE(Snapshot().empty());
}

TEST_F(ProfilerTest, ResetDropsEverything) {
  {
    Scope s("gone");
  }
  ASSERT_FALSE(Snapshot().empty());
  Reset();
  EXPECT_TRUE(Snapshot().empty());
  // Recording continues after Reset.
  {
    Scope s("fresh");
  }
  std::vector<ScopeStat> stats = Snapshot();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].path, "fresh");
}

TEST_F(ProfilerTest, ThreadTablesMergeIncludingRetiredThreads) {
  {
    Scope main_scope("shared");
  }
  std::thread worker([] {
    for (int i = 0; i < 5; ++i) {
      Scope s("shared");
      Scope inner("worker_only");
    }
  });
  worker.join();  // thread retires; its table must survive into Snapshot
  std::vector<ScopeStat> stats = Snapshot();
  const ScopeStat* shared = Find(stats, "shared");
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->count, 6);  // 1 from this thread + 5 from the retired worker
  const ScopeStat* inner = Find(stats, "shared/worker_only");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 5);
}

TEST_F(ProfilerTest, WriteProfileJsonEmitsSortedRows) {
  {
    Scope b("beta");
  }
  {
    Scope a("alpha");
  }
  std::ostringstream os;
  WriteProfileJson(os);
  std::string json = os.str();
  size_t alpha = json.find("\"path\": \"alpha\"");
  size_t beta = json.find("\"path\": \"beta\"");
  ASSERT_NE(alpha, std::string::npos) << json;
  ASSERT_NE(beta, std::string::npos) << json;
  EXPECT_LT(alpha, beta) << json;
  EXPECT_NE(json.find("\"scopes\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

// The disabled-path budget: with profiling off, the four scopes a control tick
// passes through (control_tick, policy_eval, predict, realloc) must cost at most 2%
// of the tick, which is what lets them stay compiled in. A disabled-vs-removed A/B
// would need a recompile, so the raw disabled scope cost is measured in isolation
// and charged four times against a measured tick of catalog job C; the charge
// ignores overlap with the tick's own work, so it is pessimistic. Each side takes
// its minimum over repetitions, which filters scheduler noise.
TEST_F(ProfilerTest, DisabledScopesStayWithinTwoPercentOfAControlTick) {
  SetEnabled(false);
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

  using Clock = std::chrono::steady_clock;
  auto scope_ns = [] {
    constexpr int kScopes = 1000000;
    Clock::time_point start = Clock::now();
    for (int i = 0; i < kScopes; ++i) {
      Scope s("budget_scope");
    }
    return std::chrono::duration<double, std::nano>(Clock::now() - start).count() / kScopes;
  };
  int64_t granted_sum = 0;  // consumed below so the ticks cannot be optimized away
  auto tick_ns = [&] {
    constexpr int kTicks = 20000;
    JockeyController controller(indicator, table, DeadlineUtility(3600.0), ControlLoopConfig());
    JobRuntimeStatus status;
    status.elapsed_seconds = 600.0;
    status.frac_complete.assign(static_cast<size_t>(tmpl.graph.num_stages()), 0.4);
    Clock::time_point start = Clock::now();
    for (int i = 0; i < kTicks; ++i) {
      granted_sum += controller.OnTick(status).guaranteed_tokens;
    }
    return std::chrono::duration<double, std::nano>(Clock::now() - start).count() / kTicks;
  };

  constexpr int kReps = 9;
  constexpr double kScopesPerTick = 4.0;
  double disabled_scope_ns = 1e300;
  double tick = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    disabled_scope_ns = std::min(disabled_scope_ns, scope_ns());
    tick = std::min(tick, tick_ns());
  }
  EXPECT_GT(granted_sum, 0);
  EXPECT_TRUE(Snapshot().empty());
  double overhead_pct = kScopesPerTick * disabled_scope_ns / tick * 100.0;
  EXPECT_LE(overhead_pct, 2.0) << "disabled scope " << disabled_scope_ns << " ns, control tick "
                               << tick << " ns";
  std::printf("disabled scope %.2f ns, control tick %.0f ns -> %.3f%% (budget 2%%)\n",
              disabled_scope_ns, tick, overhead_pct);
}

}  // namespace
}  // namespace prof
}  // namespace jockey
