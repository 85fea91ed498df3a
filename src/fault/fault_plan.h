// Deterministic fault schedules for the control plane and cluster.
//
// Jockey's claim (Sections 4, 6) is that the control loop holds the latency SLO
// *despite* a noisy environment — yet the control plane itself (progress reports,
// control ticks, token grants, C(p, a) lookups) is usually assumed perfect. A
// FaultPlan makes those assumptions breakable on purpose: it is a schedule of typed
// fault windows, composable programmatically or loadable from JSONL, that the
// injector (fault_injector.h) evaluates at simulated-time points.
//
// Design rules:
//  * Determinism: a plan is pure data plus one seed. The same plan and seed produce
//    the same injected faults and therefore byte-identical JSONL traces across
//    reruns; a regression test asserts this.
//  * Zero-cost detachment: nothing in the simulator or the controller references a
//    plan directly — they hold a nullable FaultInjector pointer, and the detached
//    path is one branch per injection site. A detached plan changes no simulation
//    result bit-for-bit.
//  * Windows are half-open [start_seconds, end_seconds) in simulated time, and may
//    overlap freely; each injection site consults the first matching window of its
//    kind. FaultKind lives in trace_event.h so plans and the fault_injected events
//    their injections emit share one taxonomy.

#ifndef SRC_FAULT_FAULT_PLAN_H_
#define SRC_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/trace_event.h"

namespace jockey {

// One typed fault window. The meaning of `magnitude` depends on the kind:
//   report_stale      staleness lag in seconds (reports arrive this late)
//   report_noise      sigma of the multiplicative per-stage fraction noise
//   grant_shortfall   grant factor in [0, 1]: granted = floor(requested * factor)
//   table_fault       prediction corruption factor (> 0); what a non-hardened
//                     consumer silently reads is healthy_prediction * factor
//   machine_slowdown  slowdown factor (> 1): service times of attempts started on
//                     affected machines are stretched by this much
//   profile_skew      skew strength in (0, 1): predictions shrink by up to this
//                     fraction, varying by progress decile (seeded, frozen at
//                     injector construction — the offline table itself is wrong)
//   adversarial_spike background-utilization boost (> 0) applied during the
//                     on-phase of each period (see period_seconds); the surge
//                     also oversubscribes machines, so attempts dispatched while
//                     it is on run (1 + boost)x slower
// and is unused for report_dropout, control_blackout and machine_burst.
struct FaultWindow {
  FaultKind kind = FaultKind::kReportDropout;
  double start_seconds = 0.0;
  double end_seconds = 0.0;  // half-open: the window covers [start, end)
  // Affected cluster job id; -1 targets every job. Ignored by table_fault and
  // machine_burst, which are cluster-wide by nature.
  int job = -1;
  double magnitude = 0.0;
  // machine_burst / machine_slowdown: machines [first_machine, first_machine +
  // machine_count) are hit together — a rack-style fault domain layered on the
  // per-machine Poisson failure model.
  int first_machine = 0;
  int machine_count = 0;
  // adversarial_spike only: the spike repeats every period (tuned to the control
  // period, so the controller keeps sampling the same phase); the boost is on for
  // the first half of each period, shifted by a seeded phase offset.
  double period_seconds = 0.0;

  bool Contains(double t) const { return t >= start_seconds && t < end_seconds; }
  bool AppliesTo(int job_id) const { return job < 0 || job == job_id; }
  // machine_burst / machine_slowdown: does the fault domain cover `machine`?
  bool CoversMachine(int machine) const {
    return machine >= first_machine && machine < first_machine + machine_count;
  }
};

// A seeded schedule of fault windows. Compose with Add() + the static builders, or
// round-trip through JSONL (one window per line, plus a header line with the seed).
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(uint64_t seed) : seed_(seed) {}

  FaultPlan& Add(FaultWindow window);

  static FaultWindow ReportDropout(double start, double end, int job = -1);
  static FaultWindow ReportStale(double start, double end, double lag_seconds, int job = -1);
  static FaultWindow ReportNoise(double start, double end, double sigma, int job = -1);
  static FaultWindow ControlBlackout(double start, double end, int job = -1);
  static FaultWindow GrantShortfall(double start, double end, double grant_factor,
                                    int job = -1);
  static FaultWindow TableFault(double start, double end, double corruption_factor);
  static FaultWindow MachineBurst(double start, double end, int first_machine,
                                  int machine_count);
  static FaultWindow MachineSlowdown(double start, double end, double factor,
                                     int first_machine, int machine_count);
  static FaultWindow ProfileSkew(double start, double end, double skew);
  static FaultWindow AdversarialSpike(double start, double end, double boost,
                                      double period_seconds);

  uint64_t seed() const { return seed_; }
  void set_seed(uint64_t seed) { seed_ = seed; }
  const std::vector<FaultWindow>& windows() const { return windows_; }
  bool empty() const { return windows_.empty(); }

  // Empty string when every window is well-formed; otherwise the first problem
  // found (bad interval, out-of-range magnitude, negative machine range).
  std::string Validate() const;

  // JSONL: a {"kind":"fault_plan","seed":N} header line, then one window per line.
  void Save(std::ostream& os) const;
  // Inverse of Save. Returns nullopt (and sets *error when given) on malformed
  // lines, unknown kinds, or a plan that fails Validate().
  static std::optional<FaultPlan> Load(std::istream& is, std::string* error = nullptr);

 private:
  uint64_t seed_ = 1;
  std::vector<FaultWindow> windows_;
};

}  // namespace jockey

#endif  // SRC_FAULT_FAULT_PLAN_H_
