// Scoped hierarchical control-plane profiler.
//
// The observability layer records *what* the system decided; this records *where
// the controller's own time goes* — the self-measurement the fleet-scale work
// needs, because at thousands of concurrent jobs the control tick itself becomes
// a hot path. Usage is one RAII guard per region:
//
//   void JockeyController::OnTick(...) {
//     prof::Scope tick("control_tick");
//     { prof::Scope s("predict"); ... }
//     { prof::Scope s("realloc"); ... }
//   }
//
// Design:
//  * Process-wide off by default. A disabled Scope is one relaxed atomic load and
//    a branch — cheap enough to leave compiled into the control tick, the
//    simulator event dispatch and the table build permanently. The ctest
//    ProfilerTest.DisabledScopesStayWithinTwoPercentOfAControlTick holds the
//    disabled path to a ≤2% control-tick overhead budget (it reads about 0.3%).
//  * Thread-local call stacks: each thread owns a private tree of (parent, name)
//    nodes, so the table build's worker threads profile without sharing anything
//    on the hot path. Tables merge at Snapshot() / thread exit.
//  * Deterministic aggregation keyed by call-path ("control_tick/predict"):
//    counts are exact and reproducible for a seeded run; total/max nanoseconds
//    are wall-clock and are reported as measurements, not replay state.
//
// Timestamps come from steady_clock — this is the one observability component
// that deliberately measures wall time, which is why its output lives in its own
// profile JSON and never inside a trace or timeline (those stay bit-identical
// across reruns).

#ifndef SRC_OBS_PROF_PROFILER_H_
#define SRC_OBS_PROF_PROFILER_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace jockey {
namespace prof {

// Turns collection on or off process-wide. Scopes opened while disabled record
// nothing (including their exit, even if collection is enabled mid-scope).
void SetEnabled(bool on);
bool Enabled();

// Drops every recorded sample (live thread tables and retired-thread residue).
void Reset();

// One aggregated call-path. `count` is the exact number of scope entries;
// total/max are wall nanoseconds.
struct ScopeStat {
  std::string path;  // names joined with '/', e.g. "control_tick/predict"
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t max_ns = 0;
};

// Merges all thread tables. Sorted by path, so same workload → same rows in the
// same order (timings aside).
std::vector<ScopeStat> Snapshot();

// {"scopes":[{"path":...,"count":...,"total_ns":...,"max_ns":...},...]} with
// rows sorted by path. Counts are exact; ns fields are measurements.
void WriteProfileJson(std::ostream& os);

// RAII region guard. Nesting defines the call-path key; construction and
// destruction must happen on the same thread.
class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope() { Close(); }

  // Ends the region early (idempotent). Must respect nesting order, like
  // destruction: close inner scopes before outer ones.
  void Close();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool active_;
};

}  // namespace prof
}  // namespace jockey

#endif  // SRC_OBS_PROF_PROFILER_H_
