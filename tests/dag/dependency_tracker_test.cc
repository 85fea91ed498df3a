#include "src/dag/dependency_tracker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/util/rng.h"
#include "src/workload/job_generator.h"

namespace jockey {
namespace {

JobGraph Pipeline() {
  // 0 (3 tasks) -> 1 (3 tasks, one-to-one) -> 2 (2 tasks, all-to-all barrier)
  std::vector<StageSpec> stages(3);
  stages[0] = {"s0", 3, {}};
  stages[1] = {"s1", 3, {{0, CommPattern::kOneToOne}}};
  stages[2] = {"s2", 2, {{1, CommPattern::kAllToAll}}};
  return JobGraph("pipeline", std::move(stages));
}

TEST(DependencyTrackerTest, FlatIdsRoundTrip) {
  JobGraph g = Pipeline();
  DependencyTracker t(g);
  EXPECT_EQ(t.total_tasks(), 8);
  for (int s = 0; s < g.num_stages(); ++s) {
    for (int i = 0; i < g.stage(s).num_tasks; ++i) {
      int flat = t.FlatId(s, i);
      EXPECT_EQ(t.StageOf(flat), s);
      EXPECT_EQ(t.IndexOf(flat), i);
    }
  }
}

TEST(DependencyTrackerTest, SourcesAreInitiallyReady) {
  JobGraph g = Pipeline();
  DependencyTracker t(g);
  DependencyTracker::State state(t);
  auto ready = state.TakeNewlyReady();
  EXPECT_EQ(ready.size(), 3u);  // only stage 0's tasks
  for (int task : ready) {
    EXPECT_EQ(t.StageOf(task), 0);
  }
  // Drained: nothing new until a completion happens.
  EXPECT_TRUE(state.TakeNewlyReady().empty());
}

TEST(DependencyTrackerTest, OneToOneWakesMatchingTask) {
  JobGraph g = Pipeline();
  DependencyTracker t(g);
  DependencyTracker::State state(t);
  state.TakeNewlyReady();
  state.MarkDone(t.FlatId(0, 1));
  auto ready = state.TakeNewlyReady();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], t.FlatId(1, 1));
}

TEST(DependencyTrackerTest, BarrierWaitsForWholeStage) {
  JobGraph g = Pipeline();
  DependencyTracker t(g);
  DependencyTracker::State state(t);
  state.TakeNewlyReady();
  // Finish stage 0 entirely and stage 1 partially: stage 2 must stay blocked.
  for (int i = 0; i < 3; ++i) {
    state.MarkDone(t.FlatId(0, i));
  }
  state.TakeNewlyReady();
  state.MarkDone(t.FlatId(1, 0));
  state.MarkDone(t.FlatId(1, 1));
  EXPECT_TRUE(state.TakeNewlyReady().empty());
  // The last stage-1 task completes: both stage-2 tasks release at once.
  state.MarkDone(t.FlatId(1, 2));
  auto ready = state.TakeNewlyReady();
  EXPECT_EQ(ready.size(), 2u);
}

TEST(DependencyTrackerTest, FracCompleteTracksStageProgress) {
  JobGraph g = Pipeline();
  DependencyTracker t(g);
  DependencyTracker::State state(t);
  state.TakeNewlyReady();
  EXPECT_DOUBLE_EQ(state.FracComplete(0), 0.0);
  state.MarkDone(t.FlatId(0, 0));
  EXPECT_DOUBLE_EQ(state.FracComplete(0), 1.0 / 3.0);
  std::vector<double> all(9, -1.0);  // a reused buffer is resized and overwritten
  state.FracCompleteInto(all);
  ASSERT_EQ(all.size(), static_cast<size_t>(g.num_stages()));
  EXPECT_DOUBLE_EQ(all[0], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(all[1], 0.0);
}

TEST(DependencyTrackerTest, AllDoneAfterEveryTask) {
  JobGraph g = Pipeline();
  DependencyTracker t(g);
  DependencyTracker::State state(t);
  std::vector<int> todo = state.TakeNewlyReady();
  int done = 0;
  while (!todo.empty()) {
    int task = todo.back();
    todo.pop_back();
    state.MarkDone(task);
    ++done;
    for (int next : state.TakeNewlyReady()) {
      todo.push_back(next);
    }
  }
  EXPECT_EQ(done, t.total_tasks());
  EXPECT_TRUE(state.AllDone());
}

// Property: for any generated job and any execution order consistent with readiness,
// every task eventually becomes ready exactly once and the job drains completely.
class TrackerDrainTest : public ::testing::TestWithParam<int> {};

TEST_P(TrackerDrainTest, RandomOrderDrainsCompletely) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  JobTemplate tmpl = MakeRandomJob("drain", rng);
  DependencyTracker t(tmpl.graph);
  DependencyTracker::State state(t);
  std::vector<int> ready = state.TakeNewlyReady();
  std::set<int> seen(ready.begin(), ready.end());
  int completed = 0;
  while (!ready.empty()) {
    // Complete a random ready task.
    size_t pick = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(ready.size()) - 1));
    int task = ready[pick];
    ready.erase(ready.begin() + static_cast<int64_t>(pick));
    state.MarkDone(task);
    ++completed;
    for (int next : state.TakeNewlyReady()) {
      EXPECT_TRUE(seen.insert(next).second) << "task became ready twice";
      ready.push_back(next);
    }
  }
  EXPECT_EQ(completed, t.total_tasks());
  EXPECT_TRUE(state.AllDone());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrackerDrainTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace jockey
