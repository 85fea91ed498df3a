// Runtime evaluation of a FaultPlan.
//
// The injector is the single object the simulator, controller and table cache hold
// (as a nullable pointer) to decide, at each injection site, whether a fault is
// active *now* and what it does. It owns the plan plus the one piece of mutable
// state faults need: the seeded noise stream for report_noise windows. Everything
// else is a pure lookup over the plan's windows, so two injectors built from the
// same plan behave identically and seeded runs stay byte-reproducible.

#ifndef SRC_FAULT_FAULT_INJECTOR_H_
#define SRC_FAULT_FAULT_INJECTOR_H_

#include <array>
#include <vector>

#include "src/fault/fault_plan.h"
#include "src/util/rng.h"

namespace jockey {

class FaultInjector {
 public:
  // Throws std::invalid_argument when the plan fails FaultPlan::Validate() —
  // injection sites never re-check window sanity.
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }
  bool empty() const { return plan_.empty(); }
  // Precomputed: does any window touch progress reports (dropout/stale/noise)?
  // Lets the simulator skip report-history bookkeeping entirely otherwise.
  bool HasReportFaults() const { return has_report_faults_; }

  // First window of `kind` covering simulated time `now` (and applying to `job`
  // when the kind is job-scoped), or nullptr. Linear scan: plans are tens of
  // windows at most, and the detached case never reaches here.
  const FaultWindow* Active(FaultKind kind, double now, int job = -1) const;

  // Index of a window returned by Active() within plan().windows(), for the
  // `window` field of fault_injected events.
  int IndexOf(const FaultWindow& window) const;

  // Tokens actually granted under a grant_shortfall window.
  static int ShortfallGrant(const FaultWindow& window, int requested);

  // Applies seeded multiplicative noise to a completed fraction (report_noise).
  // Mutates the injector's noise stream; call once per perturbed value.
  double PerturbFraction(const FaultWindow& window, double frac);

  bool TableFaultActive(double now) const;
  // healthy * corruption factor when a table_fault window covers `now`; healthy
  // otherwise. This is what a *non-hardened* consumer silently reads.
  double CorruptPrediction(double now, double healthy) const;

  // Gray failures. Each helper front-loads a precomputed per-kind earliest start
  // time, so an injector whose plan carries none of that kind — or only windows
  // that have not begun yet — costs one load + compare per call. These helpers
  // sit on the cluster's per-dispatch hot path.
  //
  // Product of the slowdown factors of every machine_slowdown window covering
  // (`now`, `machine`); 1.0 when none do. Applied to attempt service times.
  double SlowdownFactor(double now, int machine) const;

  // profile_skew: the offline training traces were corrupted, so the C(p, a) table
  // itself is biased — *every* consumer reads skewed predictions (unlike
  // table_fault, there is no healthy lookup path to fall back to). The per-decile
  // skew shape is seeded and frozen at construction; a window's magnitude scales
  // it. Skew is optimistic (predictions shrink), the direction that costs
  // deadlines.
  const FaultWindow* ProfileSkewWindow(double now) const;
  // healthy * (1 - magnitude * shape[decile(progress)]) for the given window.
  double SkewPrediction(const FaultWindow& window, double progress, double healthy) const;

  // Sum of the boosts of every adversarial_spike window covering `now` that is in
  // its on-phase (the first half of each period, shifted by a per-window seeded
  // phase offset); 0.0 otherwise. Added to background utilization.
  double SpikeBoost(double now) const;

  std::vector<const FaultWindow*> WindowsOfKind(FaultKind kind) const;

  // The window with the largest overlap of [start, end), any kind — used by the
  // chaos report to attribute a deadline miss to the fault that caused it.
  const FaultWindow* DominantWindow(double start, double end) const;

 private:
  FaultPlan plan_;
  Rng noise_rng_;
  bool has_report_faults_ = false;
  // Earliest start among windows of each gray kind; +inf when the plan has none.
  // A lookup at now < start can return the detached answer immediately.
  double slowdown_start_ = 0.0;
  double skew_start_ = 0.0;
  double spike_start_ = 0.0;
  bool has_profile_skew_ = false;
  bool has_spikes_ = false;
  // Unit skew shape per progress decile, drawn once from the plan seed; each
  // profile_skew window scales it by its magnitude. In [0.25, 1] so every decile
  // is meaningfully skewed and the bias never vanishes.
  std::array<double, 10> skew_shape_{};
  // Per-window spike phase offsets (0 for non-spike windows), drawn once from the
  // plan seed in window order.
  std::vector<double> spike_phase_;
};

}  // namespace jockey

#endif  // SRC_FAULT_FAULT_INJECTOR_H_
