#include "src/core/arbiter.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "src/sim/table_cache.h"

namespace jockey {

std::string ValidateArbiterConfig(const ArbiterConfig& config) {
  if (config.total_tokens < 1) return "total_tokens must be >= 1";
  if (config.min_tokens_per_job < 1) return "min_tokens_per_job must be >= 1";
  if (config.min_tokens_per_job > config.total_tokens) {
    return "min_tokens_per_job must be <= total_tokens";
  }
  if (config.grant_step < 1) return "grant_step must be >= 1";
  const std::string control = ValidateControlLoopConfig(config.control);
  if (!control.empty()) return "control." + control;
  return std::string();
}

namespace {

ArbiterConfig CheckedArbiterConfig(ArbiterConfig config) {
  const std::string problem = ValidateArbiterConfig(config);
  if (!problem.empty()) {
    throw std::invalid_argument("ArbiterConfig: " + problem);
  }
  return config;
}

// Trims `need` tokens from `assignment` toward per-entry `floors`, proportionally
// to each entry's headroom above its floor, using largest-remainder rounding
// (exact integer arithmetic, ties to the lowest index) so the split is
// deterministic. Returns the tokens still untrimmed — nonzero only when every
// entry already sits at its floor.
int TrimTowardFloors(const std::vector<int>& floors, std::vector<int>& assignment,
                     int need) {
  const size_t n = assignment.size();
  long long total_headroom = 0;
  std::vector<int> headroom(n, 0);
  for (size_t k = 0; k < n; ++k) {
    headroom[k] = std::max(0, assignment[k] - floors[k]);
    total_headroom += headroom[k];
  }
  if (need <= 0 || total_headroom == 0) {
    return need;
  }
  const long long trim_total = std::min<long long>(need, total_headroom);
  std::vector<long long> share(n, 0);
  std::vector<long long> rem(n, 0);
  long long given = 0;
  for (size_t k = 0; k < n; ++k) {
    const long long scaled = trim_total * headroom[k];
    share[k] = scaled / total_headroom;
    rem[k] = scaled % total_headroom;
    given += share[k];
  }
  // Σ rem / total_headroom is exactly the shortfall; hand out the leftover tokens
  // by descending remainder (a remainder > 0 implies share < headroom, so every
  // bump stays within headroom).
  long long leftover = trim_total - given;
  while (leftover > 0) {
    size_t best = n;
    for (size_t k = 0; k < n; ++k) {
      if (rem[k] > 0 && (best == n || rem[k] > rem[best])) {
        best = k;
      }
    }
    if (best == n) {
      break;
    }
    ++share[best];
    rem[best] = 0;
    --leftover;
  }
  for (size_t k = 0; k < n; ++k) {
    assignment[k] -= static_cast<int>(share[k]);
  }
  return need - static_cast<int>(trim_total - leftover);
}

}  // namespace

// Internal per-job state: the model, utility, the latest runtime status reported by
// the cluster, and the smoothed assignment.
struct MultiJobArbiter::ManagedJob {
  std::shared_ptr<const Jockey> model;
  PiecewiseLinear utility;
  PiecewiseLinear shifted_utility;  // utility shifted left by the dead zone
  double importance = 1.0;
  std::unique_ptr<Adapter> adapter;

  // Latest observation; valid once started.
  bool started = false;
  bool finished = false;
  JobRuntimeStatus status;
  double progress = 0.0;
  double smoothed = -1.0;
  // Tokens this job currently holds on the cluster (grants change only at the job's
  // own tick, so the arbiter must respect what others are holding right now).
  int last_granted = 0;
  // Memoized prediction columns and satisfaction points (enable_decision_cache).
  DecisionCache cache;

  // The job's expected weighted utility at every integer allocation of the scan
  // range [min_tokens_per_job, total_tokens], and its satisfaction point a_star.
  // Both depend only on this job's status, utility and importance, so they are
  // refreshed when the job ticks or its utility changes, not on other jobs' ticks.
  std::vector<double> row;
  int a_star = 0;
  bool row_stale = true;
  // Raw table predictions over the scan range when the decision cache is off.
  std::vector<double> predictions;
};

// The JobController the cluster ticks; it records the job's status, triggers a global
// rebalance, and returns this job's share.
class MultiJobArbiter::Adapter : public JobController {
 public:
  Adapter(MultiJobArbiter* arbiter, int index) : arbiter_(arbiter), index_(index) {}

  ControlDecision OnTick(const JobRuntimeStatus& status) override {
    ManagedJob& job = *arbiter_->jobs_[static_cast<size_t>(index_)];
    job.started = true;
    job.finished = status.total_tasks > 0 && status.completed_tasks == status.total_tasks;
    job.status = status;
    job.progress = job.model->indicator().Evaluate(status.frac_complete);
    job.row_stale = true;
    arbiter_->Rebalance();
    // Other jobs' grants only change at their own ticks; never hand out more than the
    // budget minus what the rest currently holds (floored at the per-job minimum, so
    // the transient worst case overshoots by at most that floor).
    int held_by_others = 0;
    for (size_t k = 0; k < arbiter_->jobs_.size(); ++k) {
      if (static_cast<int>(k) != index_ && !arbiter_->jobs_[k]->finished) {
        held_by_others += arbiter_->jobs_[k]->last_granted;
      }
    }
    int share = arbiter_->last_assignment_[static_cast<size_t>(index_)];
    int granted = std::clamp(share, arbiter_->config_.min_tokens_per_job,
                             std::max(arbiter_->config_.min_tokens_per_job,
                                      arbiter_->config_.total_tokens - held_by_others));
    job.last_granted = granted;
    return ControlDecision{granted, static_cast<double>(share)};
  }

  void OnFinished(SimTime) override {
    ManagedJob& job = *arbiter_->jobs_[static_cast<size_t>(index_)];
    job.finished = true;
    job.last_granted = 0;
  }

 private:
  MultiJobArbiter* arbiter_;
  int index_;
};

MultiJobArbiter::MultiJobArbiter(ArbiterConfig config)
    : config_(CheckedArbiterConfig(config)) {}

MultiJobArbiter::~MultiJobArbiter() = default;

int MultiJobArbiter::AddJob(std::shared_ptr<const Jockey> model, PiecewiseLinear utility,
                            double importance) {
  assert(model != nullptr);
  if ((static_cast<int>(jobs_.size()) + 1) * config_.min_tokens_per_job >
      config_.total_tokens) {
    // Over-admission: once every job runs, the per-job floors alone would exceed
    // the budget and Rebalance's water-filling budget would go negative.
    throw std::invalid_argument(
        "MultiJobArbiter: admitting job " + std::to_string(jobs_.size()) +
        " would put min_tokens_per_job * jobs above total_tokens (" +
        std::to_string((jobs_.size() + 1) * config_.min_tokens_per_job) + " > " +
        std::to_string(config_.total_tokens) + ")");
  }
  int index = static_cast<int>(jobs_.size());
  auto job = std::make_unique<ManagedJob>();
  job->model = std::move(model);
  job->shifted_utility = utility.ShiftLeft(config_.control.dead_zone_seconds);
  job->utility = std::move(utility);
  job->importance = importance;
  job->adapter = std::make_unique<Adapter>(this, index);
  RekeyJobCache(*job);
  jobs_.push_back(std::move(job));
  last_assignment_.push_back(0);
  return index;
}

JobController* MultiJobArbiter::ControllerFor(int index) {
  return jobs_[static_cast<size_t>(index)]->adapter.get();
}

void MultiJobArbiter::SetUtility(int index, PiecewiseLinear utility) {
  ManagedJob& job = *jobs_[static_cast<size_t>(index)];
  job.shifted_utility = utility.ShiftLeft(config_.control.dead_zone_seconds);
  job.utility = std::move(utility);
  job.row_stale = true;
  // The fingerprint folds the utility knots: the changed utility re-keys the cache
  // and drops this job's memoized columns and satisfaction points.
  RekeyJobCache(job);
}

void MultiJobArbiter::RekeyJobCache(ManagedJob& job) const {
  if (!config_.control.enable_decision_cache) {
    return;
  }
  uint64_t h = HashBytes(&config_.control.slack, sizeof(config_.control.slack));
  h = HashBytes(&config_.control.prediction_quantile,
                sizeof(config_.control.prediction_quantile), h);
  h = HashBytes(&config_.min_tokens_per_job, sizeof(config_.min_tokens_per_job), h);
  h = HashBytes(&config_.total_tokens, sizeof(config_.total_tokens), h);
  h = HashBytes(&job.importance, sizeof(job.importance), h);
  for (const auto& knot : job.shifted_utility.knots()) {
    h = HashBytes(&knot.first, sizeof(knot.first), h);
    h = HashBytes(&knot.second, sizeof(knot.second), h);
  }
  const int buckets = job.model->table().num_buckets();
  h = HashBytes(&buckets, sizeof(buckets), h);
  UtilityPlateau plateau = AnalyzePlateau(job.shifted_utility);
  // The scan compares importance-scaled utilities, so the plateau ceiling scales
  // too — and so does the rounding wobble the level-2 margins must absorb. A
  // non-positive importance flips the maximization; don't memoize decisions there.
  if (job.importance <= 0.0 ||
      job.importance * plateau.max_abs_utility > kPlateauMaxMagnitude) {
    plateau.usable = false;
  }
  plateau.max_utility = job.importance * plateau.max_utility;
  job.cache.Rekey(h, buckets, plateau);
}

DecisionCacheStats MultiJobArbiter::cache_stats() const {
  DecisionCacheStats total;
  for (const auto& job : jobs_) {
    const DecisionCacheStats& s = job->cache.stats();
    total.column_hits += s.column_hits;
    total.column_misses += s.column_misses;
    total.decision_hits += s.decision_hits;
    total.decision_misses += s.decision_misses;
    total.invalidations += s.invalidations;
    total.bypasses += s.bypasses;
  }
  return total;
}

void MultiJobArbiter::RefreshRow(ManagedJob& job) const {
  const int first = config_.min_tokens_per_job;
  const int last = config_.total_tokens;
  const size_t width = static_cast<size_t>(last - first + 1);
  const double quantile = config_.control.prediction_quantile;
  const CompletionTable& table = job.model->table();
  // Memoized prediction columns (enable_decision_cache): the scan range's raw table
  // predictions per progress bucket, reused across ticks while the bucket repeats.
  const bool use_cache = config_.control.enable_decision_cache;
  const double* predictions = nullptr;
  int bucket = 0;
  if (use_cache) {
    bucket = table.BucketIndex(job.progress);
    const std::vector<double>* column = job.cache.FindColumn(bucket);
    if (column != nullptr) {
      ++job.cache.stats().column_hits;
    } else {
      std::vector<double> fresh(width);
      table.PredictRange(job.progress, first, last, quantile, fresh.data());
      ++job.cache.stats().column_misses;
      column = &job.cache.StoreColumn(bucket, std::move(fresh));
    }
    predictions = column->data();
  } else {
    job.predictions.resize(width);
    table.PredictRange(job.progress, first, last, quantile, job.predictions.data());
    predictions = job.predictions.data();
  }
  job.row.resize(width);
  for (size_t i = 0; i < width; ++i) {
    const double predicted = config_.control.slack * predictions[i];
    job.row[i] = job.importance * job.shifted_utility(job.status.elapsed_seconds + predicted);
  }

  // The "satisfaction point": the minimum allocation achieving the job's maximum
  // attainable utility within the whole budget. Deadline utilities are flat-then-
  // cliff (non-concave), so token-by-token water-filling would equalize lateness
  // across jobs instead of pushing individual jobs over their deadline cliff; the
  // jump to a_star is the move that meets a deadline outright. The scan's winner is
  // memoized per progress bucket and served while provably still the answer
  // (decision_cache.h).
  if (use_cache) {
    if (const DecisionCache::Decision* hit = job.cache.FindDecision(
            bucket, job.status.elapsed_seconds, config_.control.slack)) {
      ++job.cache.stats().decision_hits;
      job.a_star = hit->raw;
      return;
    }
    ++job.cache.stats().decision_misses;
  }
  double best_u = 0.0;
  size_t best_i = 0;
  double true_max = -1e300;
  double prefix_at_winner = 0.0;
  bool winner_had_prefix = false;
  for (size_t i = 0; i < width; ++i) {
    const double u = job.row[i];
    if (i == 0 || u > best_u + 1e-9) {
      best_u = u;
      best_i = i;
      winner_had_prefix = i != 0;
      prefix_at_winner = true_max;
    }
    true_max = std::max(true_max, u);
  }
  job.a_star = first + static_cast<int>(best_i);
  const UtilityPlateau& plateau = job.cache.plateau();
  if (use_cache && plateau.usable && best_u > plateau.max_utility - kPlateauWinnerSlop &&
      (!winner_had_prefix || prefix_at_winner < plateau.max_utility - kPlateauPrefixGuard)) {
    job.cache.StoreDecision(bucket, DecisionCache::Decision{job.a_star, predictions[best_i],
                                                            job.status.elapsed_seconds});
  }
}

void MultiJobArbiter::Rebalance() {
  // Active = started and unfinished. Inactive jobs hold zero tokens.
  const int first = config_.min_tokens_per_job;
  active_.clear();
  for (size_t i = 0; i < jobs_.size(); ++i) {
    ManagedJob& job = *jobs_[i];
    if (!job.started || job.finished) {
      last_assignment_[i] = 0;
      continue;
    }
    if (job.row_stale) {
      RefreshRow(job);
      job.row_stale = false;
    }
    active_.push_back(Slot{i, first, job.row[0]});
  }
  if (active_.empty()) {
    return;
  }

  // Greedy water-filling on raw allocations. The budget cannot go negative with
  // AddJob's over-admission guard; the clamp is defense in depth. Every allocation
  // the greedy visits stays inside the scan range, so it reads the rows directly.
  int budget = std::max(0, config_.total_tokens - first * static_cast<int>(active_.size()));
  // Greedy with multi-step lookahead. Fixed small blocks cross prediction plateaus
  // (grid interpolation makes one-token gains zero); the a_star jump crosses utility
  // cliffs. The per-token gain rate decides among them; ties go to the lowest job
  // index, then to the earliest block in the order below. A job's best block only
  // changes when it is granted or when the shrinking budget rules that block out,
  // so it is kept per job and recomputed in just those two cases.
  auto choose_block = [&](Slot& slot) {
    const ManagedJob& job = *jobs_[slot.job];
    slot.block_rate = 1e-12;  // utility gain per token must be strictly positive
    slot.block = 0;
    for (int block : {config_.grant_step, 5 * config_.grant_step, 15 * config_.grant_step,
                      job.a_star - slot.raw}) {
      if (block <= 0 || block > budget) {
        continue;
      }
      const double next = job.row[static_cast<size_t>(slot.raw + block - first)];
      const double rate = (next - slot.utility_now) / static_cast<double>(block);
      if (rate > slot.block_rate) {
        slot.block_rate = rate;
        slot.block = block;
      }
    }
  };
  for (Slot& slot : active_) {
    choose_block(slot);
  }
  while (budget >= config_.grant_step) {
    Slot* best = nullptr;
    for (Slot& slot : active_) {
      if (slot.block > budget) {
        choose_block(slot);
      }
      if (slot.block > 0 && (best == nullptr || slot.block_rate > best->block_rate)) {
        best = &slot;
      }
    }
    if (best == nullptr) {
      break;  // nobody's utility improves: leave the rest of the budget unallocated
    }
    best->raw += best->block;
    best->utility_now = jobs_[best->job]->row[static_cast<size_t>(best->raw - first)];
    budget -= best->block;
    choose_block(*best);
  }

  // Per-job hysteresis with the snap-to-target convergence of the single-job loop.
  for (const Slot& slot : active_) {
    ManagedJob& job = *jobs_[slot.job];
    if (job.smoothed < 0.0) {
      job.smoothed = slot.raw;
    } else {
      job.smoothed += config_.control.hysteresis_alpha * (slot.raw - job.smoothed);
      if (std::abs(job.smoothed - slot.raw) < 0.5) {
        job.smoothed = slot.raw;
      }
    }
    last_assignment_[slot.job] = static_cast<int>(std::ceil(job.smoothed - 1e-9));
  }

  // Smoothing can transiently overshoot the budget when one job releases and another
  // grabs. Trim the overshoot proportionally to each job's surplus over its greedy
  // solution (largest-remainder rounding, deterministic), so a job sitting at its
  // computed need is never squeezed below it while headroom exists elsewhere; only
  // if the surpluses alone don't cover it does a second pass squeeze toward the
  // per-job floor. The trim deliberately leaves job.smoothed alone: the overshoot
  // is a transient artifact of smoothing, and folding the trim back into the
  // hysteresis state would permanently drag a job's trajectory down one token per
  // trimmed tick even after the contention passes. It also needs no utility
  // lookups, where the old token-by-token loop paid one table lookup per trimmed
  // token.
  int total = 0;
  for (const Slot& slot : active_) {
    total += last_assignment_[slot.job];
  }
  if (total > config_.total_tokens) {
    std::vector<int> assignment(active_.size());
    std::vector<int> floors(active_.size());
    for (size_t k = 0; k < active_.size(); ++k) {
      assignment[k] = last_assignment_[active_[k].job];
      floors[k] = std::max(active_[k].raw, config_.min_tokens_per_job);
    }
    int need = TrimTowardFloors(floors, assignment, total - config_.total_tokens);
    if (need > 0) {
      std::fill(floors.begin(), floors.end(), config_.min_tokens_per_job);
      TrimTowardFloors(floors, assignment, need);
    }
    for (size_t k = 0; k < active_.size(); ++k) {
      last_assignment_[active_[k].job] = assignment[k];
    }
  }
}

}  // namespace jockey
