// Task-readiness bookkeeping shared by both simulators.
//
// Given a JobGraph, DependencyTracker precomputes, once, the wake-up lists implied by
// the stage edges: one-to-one edges wake specific consumer tasks, full-shuffle
// (barrier) edges wake every task of the consumer stage only when the producer stage
// fully completes. A State instance then tracks one execution's completion progress.
//
// Used by Jockey's offline job simulator (src/sim/) and by the cluster simulator's
// per-job manager (src/cluster/) so both enforce identical DAG semantics.

#ifndef SRC_DAG_DEPENDENCY_TRACKER_H_
#define SRC_DAG_DEPENDENCY_TRACKER_H_

#include <vector>

#include "src/dag/job_graph.h"

namespace jockey {

class DependencyTracker {
 public:
  explicit DependencyTracker(const JobGraph& graph);

  const JobGraph& graph() const { return *graph_; }
  int total_tasks() const { return total_tasks_; }
  int FlatId(int stage, int index) const {
    return task_base_[static_cast<size_t>(stage)] + index;
  }
  int StageOf(int flat_task) const { return stage_of_[static_cast<size_t>(flat_task)]; }
  int IndexOf(int flat_task) const {
    return flat_task - task_base_[static_cast<size_t>(StageOf(flat_task))];
  }
  int StageTotal(int stage) const { return stage_total_[static_cast<size_t>(stage)]; }

  // Completion state of one execution.
  class State {
   public:
    explicit State(const DependencyTracker& tracker);

    // Marks a task's successful completion; newly unblocked tasks are appended to the
    // internal ready list. Each task must be marked done exactly once.
    void MarkDone(int flat_task);

    // Drains and returns tasks that became ready since the last call (including the
    // initially ready source tasks on the first call).
    std::vector<int> TakeNewlyReady();

    // Allocation-free variant: appends the drained tasks to `out` (not cleared).
    // The cluster simulator's event loop calls this with a reused scratch vector.
    void TakeNewlyReadyInto(std::vector<int>& out);

    bool AllDone() const { return done_total_ == tracker_->total_tasks(); }
    int done_total() const { return done_total_; }
    int StageDone(int stage) const { return stage_done_[static_cast<size_t>(stage)]; }
    double FracComplete(int stage) const;
    // Writes the per-stage completed fraction of every stage (the f_s vector of
    // Section 4.3) into `out`, resized to the stage count. Callers that sample
    // progress repeatedly pass the same buffer, so a sample allocates nothing.
    void FracCompleteInto(std::vector<double>& out) const;

   private:
    void Unblock(int flat_task);

    const DependencyTracker* tracker_;
    std::vector<int> wait_count_;
    std::vector<int> stage_done_;
    std::vector<int> newly_ready_;
    int done_total_ = 0;
  };

 private:
  const JobGraph* graph_;
  int total_tasks_ = 0;
  std::vector<int> task_base_;
  std::vector<int> stage_of_;
  std::vector<int> stage_total_;
  // One-to-one wake-ups in CSR form: flat task t's consumers are
  // one_to_one_consumers_[one_to_one_offsets_[t] .. one_to_one_offsets_[t + 1]).
  std::vector<int> one_to_one_offsets_;
  std::vector<int> one_to_one_consumers_;
  std::vector<std::vector<int>> barrier_consumers_;  // per stage
  std::vector<int> initial_wait_count_;
  std::vector<int> initial_ready_;  // tasks with no inputs, in flat-id order
};

}  // namespace jockey

#endif  // SRC_DAG_DEPENDENCY_TRACKER_H_
