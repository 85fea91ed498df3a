// Multi-job arbiter: globally coordinated allocation across SLO jobs.
//
// Section 4.4: "We plan to extend Jockey to reach globally optimal allocations when
// managing multiple SLO-bound jobs. Doing so requires an additional inter-job arbiter
// that dynamically shifts resources from jobs with low expected marginal utility to
// those with high expected marginal utility."
//
// The arbiter manages a fixed guaranteed-token budget across jobs. On every control
// tick of any managed job it re-solves a greedy water-filling problem: start each
// running job at the minimum allocation, then repeatedly grant the next token block
// to the job whose expected (importance-weighted) utility increases the most, until
// the budget is exhausted or no job benefits. Expected utility per job comes from the
// same machinery as the single-job controller: U(t_r + slack * C(p, a)), with the
// utility shifted left by the dead zone. Per-job hysteresis smooths the assignments.
//
// A job's expected utility over the whole scan range depends only on its own status,
// utility and importance, so each job keeps that row (filled by one
// CompletionTable::PredictRange sweep) and its satisfaction point across ticks,
// recomputing them only when the job itself ticks or its utility changes. A tick
// then costs one row refill plus the greedy over the rows, not a table lookup per
// candidate allocation of every job.
//
// Each managed job exposes a JobController adapter (ControllerFor) that plugs into
// the cluster simulator exactly like a standalone JockeyController.

#ifndef SRC_CORE_ARBITER_H_
#define SRC_CORE_ARBITER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/controller.h"
#include "src/core/decision_cache.h"
#include "src/core/jockey.h"
#include "src/util/piecewise_linear.h"

namespace jockey {

struct ArbiterConfig {
  // Guaranteed tokens shared by all managed jobs.
  int total_tokens = 150;
  // Floor per running job, so no admitted job starves outright.
  int min_tokens_per_job = 1;
  // Tokens granted per greedy step; > 1 trades optimality for speed.
  int grant_step = 1;
  // Per-job smoothing and prediction settings (slack / dead zone / quantile reused
  // from the single-job loop; enable_decision_cache memoizes the per-job candidate
  // scans — see decision_cache.h).
  ControlLoopConfig control;
};

// Empty string when the config is sane; otherwise the first problem found.
// MultiJobArbiter's constructor calls this and throws std::invalid_argument —
// without it, min_tokens_per_job * active_jobs > total_tokens silently drives the
// water-filling budget negative and per-job floors can sum above the budget.
std::string ValidateArbiterConfig(const ArbiterConfig& config);

// The arbiter and its per-job controller adapters. Not thread-safe; the cluster
// simulator is single-threaded.
class MultiJobArbiter {
 public:
  explicit MultiJobArbiter(ArbiterConfig config);
  ~MultiJobArbiter();

  MultiJobArbiter(const MultiJobArbiter&) = delete;
  MultiJobArbiter& operator=(const MultiJobArbiter&) = delete;

  // Registers a job with its trained model, utility function, and importance weight
  // (utilities are multiplied by the weight before comparison, Section 2.2's "map
  // latency objectives ... onto an appropriate weight" done right). Returns the job's
  // arbiter index. Throws std::invalid_argument when admitting the job would push
  // the per-job floors above total_tokens (over-admission).
  int AddJob(std::shared_ptr<const Jockey> model, PiecewiseLinear utility,
             double importance = 1.0);

  // The controller to attach to the cluster submission of job `index`.
  JobController* ControllerFor(int index);

  // Replaces a job's utility (deadline changes).
  void SetUtility(int index, PiecewiseLinear utility);

  int num_jobs() const { return static_cast<int>(jobs_.size()); }
  const ArbiterConfig& config() const { return config_; }

  // The most recent global assignment (tokens per job index); for inspection.
  const std::vector<int>& last_assignment() const { return last_assignment_; }

  // Decision-cache counters summed over all managed jobs (all zero when
  // control.enable_decision_cache is off).
  DecisionCacheStats cache_stats() const;

 private:
  struct ManagedJob;
  class Adapter;

  // Recomputes the global assignment using the latest status of every active job.
  void Rebalance();
  // Refills a job's utility row and satisfaction point from its latest status.
  void RefreshRow(ManagedJob& job) const;
  // Re-keys a job's decision cache from the arbiter config and the job's shifted
  // utility / importance (no-op when caching is off).
  void RekeyJobCache(ManagedJob& job) const;

  ArbiterConfig config_;
  std::vector<std::unique_ptr<ManagedJob>> jobs_;
  std::vector<int> last_assignment_;
  // Rebalance's working state per active job, kept across calls so that a tick
  // allocates nothing.
  struct Slot {
    size_t job = 0;            // index into jobs_
    int raw = 0;               // the greedy's allocation so far
    double utility_now = 0.0;  // the job's row at `raw`
    double block_rate = 0.0;   // the best gain per token among the candidate blocks
    int block = 0;             // the block achieving it; 0 = no block gains
  };
  std::vector<Slot> active_;
};

}  // namespace jockey

#endif  // SRC_CORE_ARBITER_H_
