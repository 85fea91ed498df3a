// Control-plane decision caching (the ROADMAP's "Execution Templates for the
// controller" item). Recurring jobs re-run the same DAG daily, yet the control loop
// recomputes every allocation decision from scratch: one table lookup per candidate
// allocation per tick. This cache memoizes that work at two levels, under one hard
// rule: *the cache may only skip work, never change a decision*. Every checked-in
// scenario must produce a byte-identical event stream with caching on and off
// (tests/scenario/decision_cache_differential_test.cc). The multi-job arbiter keeps
// each job's utility row across ticks (arbiter.h) and consults the cache only when
// it refills a row; there the cache no longer measurably pays (DESIGN.md,
// "Decision caching").
//
// Level 1 — prediction columns. CompletionTable::Predict(p, a, q) depends on p only
// through its progress bucket (CompletionTable::BucketIndex), so the column of raw
// predictions over the integer scan range is memoized per bucket and replayed
// through the exact same downstream arithmetic as an uncached scan. Bit-identical
// by construction.
//
// Level 2 — whole decisions. The scan's winner is memoized per bucket and served
// again without rescanning while it is *provably* still what the scan would pick.
// The proof rides on the shape every utility here has: a left plateau at the
// maximum followed by a non-increasing tail (deadline utilities are flat until the
// deadline, then fall). While the winner's slack-adjusted completion estimate stays
// on the plateau, its utility is pinned at the maximum; and since utility is
// non-increasing in elapsed time, every candidate that lost by a clear margin keeps
// losing as time advances. Validity is therefore: same fingerprint (config + utility
// knots), same progress bucket, elapsed no earlier than when the decision was made,
// and the winner's estimate still inside the plateau. The margins below
// (kPlateauWinnerSlop / kPlateauPrefixGuard) cover piecewise-linear interpolation
// rounding, which AnalyzePlateau bounds by capping the utility magnitude it accepts.
//
// Level 2 must be bypassed whenever the scan's arithmetic is not a pure function of
// (bucket, elapsed): model correction (speed_estimate_ can rise), table-fault and
// profile-skew windows (lookups are corrupted in time-dependent ways). Level 1 is
// bypassed under fault windows too — the cached values are *healthy* lookups.
//
// Warm starting extends the same idea across runs: WarmStartAllocation inverts the
// deadline bound from the previous run's postmortem (realized critical path and
// total work) into the initial token grant, so a recurring run's controller starts
// where the last run ended up instead of re-deriving it from a cold scan.

#ifndef SRC_CORE_DECISION_CACHE_H_
#define SRC_CORE_DECISION_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/util/piecewise_linear.h"

namespace jockey {

// Hit/miss/invalidation counts; exposed through JockeyController::cache_stats(),
// MultiJobArbiter::cache_stats() and the control.decision_cache.* metrics.
struct DecisionCacheStats {
  int64_t column_hits = 0;
  int64_t column_misses = 0;
  int64_t decision_hits = 0;
  int64_t decision_misses = 0;
  int64_t invalidations = 0;
  int64_t bypasses = 0;  // ticks where a fault window forced the uncached path
};

// Shape summary of a (dead-zone-shifted) utility function, as needed by the level-2
// validity rule: `usable` iff the function has >= 2 knots, non-increasing knot
// values (so the left plateau is the global maximum and utility never recovers as
// time passes) and magnitude within the rounding-analysis cap below. `plateau_end`
// is the largest x still worth `max_utility` (+inf for a constant function).
struct UtilityPlateau {
  bool usable = false;
  double max_utility = 0.0;
  double plateau_end = 0.0;
  double max_abs_utility = 0.0;
};

UtilityPlateau AnalyzePlateau(const PiecewiseLinear& shifted_utility);

// Level-2 margins. PiecewiseLinear interpolation computes y0*(1-f) + y1*f, which on
// a flat plateau segment is within a few ulps of the plateau value rather than
// exactly equal to it. With knot magnitudes capped at kPlateauMaxMagnitude (1e4;
// AnalyzePlateau rejects larger), the absolute evaluation error near the maximum is
// below ~1e-10. A memoized winner is therefore only stored when every earlier
// candidate lost by kPlateauPrefixGuard — far more than the scan's own 1e-9
// tie-break epsilon plus twice the rounding bound — which keeps the stored winner
// the scan's answer at any later eligible tick.
inline constexpr double kPlateauMaxMagnitude = 1e4;
inline constexpr double kPlateauWinnerSlop = 1e-10;
inline constexpr double kPlateauPrefixGuard = 4e-9;

// The bound the paper's oracle allocates against, inverted: given the previous
// run's realized critical path and total work (both from the postmortem) and the
// deadline, the smallest token count whose ideal completion-time bound
// cp + (total_work - cp) / tokens meets the deadline, clamped to [min, max]. Used
// to seed a recurring run's controller (ControlLoopConfig::warm_start_tokens).
int WarmStartAllocation(double critical_path_seconds, double total_work_seconds,
                        double deadline_seconds, int min_tokens, int max_tokens);

// Per-controller (or per-arbiter-job) memo. Not thread-safe; owned by a controller
// that is itself single-threaded per run.
class DecisionCache {
 public:
  struct Decision {
    int raw = 0;               // the scan's winning allocation
    double prediction = 0.0;   // raw (uncorrected) table prediction at `raw`
    double made_at_elapsed = 0.0;
  };

  // Re-keys the cache to a new (config, utility) fingerprint. A changed fingerprint
  // drops all columns and decisions (counted as an invalidation when anything was
  // cached); an unchanged one is a no-op. Returns true when state was dropped.
  bool Rekey(uint64_t fingerprint, int num_buckets, const UtilityPlateau& plateau);

  uint64_t fingerprint() const { return fingerprint_; }
  const UtilityPlateau& plateau() const { return plateau_; }

  // The memoized prediction column for `bucket`, or nullptr. Columns store raw
  // table predictions for each integer allocation in the scan range, in scan order.
  const std::vector<double>* FindColumn(int bucket) const;
  const std::vector<double>& StoreColumn(int bucket, std::vector<double> column);

  // The memoized decision for `bucket` if it provably still is what the scan would
  // return at `elapsed` (see the level-2 rule above): the decision was made no
  // later than `elapsed`, and `elapsed + slack * prediction` — computed exactly as
  // the scan computes the winner's utility argument — is still on the plateau.
  const Decision* FindDecision(int bucket, double elapsed, double slack) const;
  void StoreDecision(int bucket, const Decision& decision);

  // Drops memoized decisions but keeps prediction columns (raw table values stay
  // valid across utility changes and fault windows). Counted as an invalidation
  // when any decision was present. Returns true when state was dropped.
  bool InvalidateDecisions();

  // Trace-event signature of a served decision: fingerprint chained with bucket.
  uint64_t SignatureFor(int bucket) const;

  DecisionCacheStats& stats() { return stats_; }
  const DecisionCacheStats& stats() const { return stats_; }

 private:
  uint64_t fingerprint_ = 0;
  UtilityPlateau plateau_;
  std::vector<std::vector<double>> columns_;  // empty vector == absent
  std::vector<Decision> decisions_;
  std::vector<char> has_decision_;
  DecisionCacheStats stats_;
};

}  // namespace jockey

#endif  // SRC_CORE_DECISION_CACHE_H_
