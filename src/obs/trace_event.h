// The typed control-decision / scheduler trace-event model.
//
// Jockey's evaluation (Figs 6 and 9) hinges on explaining *why* the controller
// picked each allocation — progress, the C(p, a) prediction, utility, dead-zone and
// hysteresis gating — and on attributing latency variance to cluster events
// (evictions, failures, re-executions, speculation). This header defines one struct
// per thing worth recording, bundled into a TraceEvent tagged union that flows
// through the ObserverSink interface (observer.h) to an exporter (jsonl.h).
//
// Design rules:
//  * Every payload is a flat POD of numbers — serializable to one JSONL line and
//    comparable byte-for-byte across runs. No strings, no pointers, no wall-clock
//    timestamps: `time_seconds` is *simulated* time (0 for offline events such as
//    cache traffic), which is what makes seeded traces bit-identical across reruns
//    and across precompute thread counts.
//  * Emission sites are single-threaded by construction (the discrete-event loops
//    and the offline build's merge phase); worker threads never emit.
//  * Adding a kind means: payload struct here, its name in kEventKindNames, and its
//    field table in jsonl.cc's kPayloadFields, which drives both the JSONL writer and
//    the strict reader. static_asserts tie the names and the tables to the variant.
//  * Every enum on the wire has one array of names, indexed by enumerator. Its
//    *Name() function, the readers' lookups and ParseFaultKind all read that array.

#ifndef SRC_OBS_TRACE_EVENT_H_
#define SRC_OBS_TRACE_EVENT_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string_view>
#include <utility>
#include <variant>

namespace jockey {

// The wire name of `value`, read from the array its enum's WireNames() overload
// returns; "unknown" for a value outside the enumerators. The names are literals,
// so `.data()` is a NUL-terminated C string.
template <typename E>
std::string_view EnumName(E value) {
  const auto& names = WireNames(value);
  const auto index = static_cast<size_t>(value);
  return index < std::size(names) ? names[index] : "unknown";
}

// Inverse of EnumName; nullopt for a token that names no enumerator.
template <typename E>
std::optional<E> EnumFromName(std::string_view name) {
  const auto& names = WireNames(E{});
  for (size_t i = 0; i < std::size(names); ++i) {
    if (names[i] == name) {
      return static_cast<E>(i);
    }
  }
  return std::nullopt;
}

// One control-loop decision (Section 4.3): everything Fig 6 plots per tick, plus
// the moderation state needed to explain why granted != raw.
struct ControlTickEvent {
  int job = 0;
  double elapsed_seconds = 0.0;
  double progress = 0.0;
  // Predicted remaining seconds at the granted allocation, before slack.
  double predicted_remaining_seconds = 0.0;
  // Utility of the predicted completion under the dead-zone-shifted utility.
  double utility = 0.0;
  double raw_allocation = 0.0;
  double smoothed_allocation = 0.0;
  int granted_tokens = 0;
  // Model-speed estimate (1.0 unless online model correction is active).
  double model_speed = 1.0;
};

// One C(p, a) lookup as used by a control decision. The per-candidate scan
// (~100 lookups per tick) is aggregated into the control-tick event and a counter;
// this event records the lookup at the allocation the controller settled on.
struct PredictionLookupEvent {
  int job = 0;
  double progress = 0.0;
  double allocation = 0.0;
  double predicted_remaining_seconds = 0.0;
};

// The cluster applied a new guaranteed-token count (only emitted on change).
struct AllocationChangeEvent {
  int job = 0;
  int from_tokens = 0;
  int to_tokens = 0;
};

// The job's utility function was replaced mid-run (Fig 7's SLO changes).
struct UtilityChangeEvent {
  int job = 0;
  double elapsed_seconds = 0.0;
};

// Outcome codes of persistent table-cache traffic (table_cache.h).
enum class CacheCode : int {
  kHit = 0,       // entry found and deserialized
  kMiss = 1,      // no entry under the key
  kCorrupt = 2,   // entry present but failed validation (treated as a miss)
  kIoError = 3,   // entry present but unreadable / write failed
  kStored = 4,    // entry written
  kDisabled = 5,  // cache not configured; nothing consulted
};

inline constexpr std::string_view kCacheCodeNames[] = {
    "hit", "miss", "corrupt", "io_error", "stored", "disabled"};
static_assert(std::size(kCacheCodeNames) == static_cast<size_t>(CacheCode::kDisabled) + 1);
constexpr const auto& WireNames(CacheCode) { return kCacheCodeNames; }
inline const char* CacheCodeName(CacheCode code) { return EnumName(code).data(); }

struct TableCacheLookupEvent {
  uint64_t key = 0;
  CacheCode code = CacheCode::kMiss;
  uint64_t bytes = 0;  // entry size on a hit, 0 otherwise
};

struct TableCacheStoreEvent {
  uint64_t key = 0;
  CacheCode code = CacheCode::kStored;
  uint64_t bytes = 0;
};

// LRU pruning removed an entry (cache over --cache-max-bytes).
struct TableCacheEvictEvent {
  uint64_t key = 0;
  uint64_t bytes = 0;
};

struct JobSubmitEvent {
  int job = 0;
  int guaranteed_tokens = 0;
};

struct JobFinishEvent {
  int job = 0;
  double completion_seconds = 0.0;
};

// A task attempt started on a machine (guaranteed or spare priority).
struct TaskDispatchEvent {
  int job = 0;
  int stage = 0;
  int task = 0;  // flat task id
  int machine = 0;
  bool spare = false;
  bool speculative = false;
};

struct TaskCompleteEvent {
  int job = 0;
  int stage = 0;
  int task = 0;
  bool spare = false;
  bool speculative = false;
};

// Why a running attempt was killed.
enum class KillReason : int {
  kSpareEviction = 0,   // background demand reclaimed the spare slot
  kTaskFailure = 1,     // the task's own failure model fired
  kMachineFailure = 2,  // the machine hosting it went down
};

inline constexpr std::string_view kKillReasonNames[] = {
    "spare_eviction", "task_failure", "machine_failure"};
static_assert(std::size(kKillReasonNames) == static_cast<size_t>(KillReason::kMachineFailure) + 1);
constexpr const auto& WireNames(KillReason) { return kKillReasonNames; }
inline const char* KillReasonName(KillReason reason) { return EnumName(reason).data(); }

struct TaskKilledEvent {
  int job = 0;
  int stage = 0;
  int task = 0;
  KillReason reason = KillReason::kSpareEviction;
  // True when the kill put the task back on the pending queue (re-execution); false
  // when another copy of it was still running.
  bool requeued = false;
};

struct SpeculativeLaunchEvent {
  int job = 0;
  int stage = 0;
  int task = 0;
};

struct MachineFailureEvent {
  int machine = 0;
  int tasks_killed = 0;
};

struct MachineRecoverEvent {
  int machine = 0;
};

// Classes of injected control-plane / cluster faults (fault_plan.h). Defined here,
// like CacheCode and KillReason, so fault plans and the events their injections emit
// share one taxonomy that can never disagree.
enum class FaultKind : int {
  kReportDropout = 0,    // progress reports freeze at their last pre-window value
  kReportStale = 1,      // progress reports arrive `magnitude` seconds late
  kReportNoise = 2,      // per-stage fractions perturbed by seeded noise (sigma)
  kControlBlackout = 3,  // control ticks are skipped entirely
  kGrantShortfall = 4,   // the scheduler grants only `magnitude` x requested tokens
  kTableFault = 5,       // C(p,a) lookups fail / return corrupted predictions
  kMachineBurst = 6,     // correlated machine failures (rack-style outage)
  // Gray failures: the component stays alive but degrades, appended after the
  // crash-style kinds to keep earlier wire tags stable.
  kMachineSlowdown = 7,   // slow-but-alive machines: service times stretched
  kProfileSkew = 8,       // offline profile corrupted: C(p,a) is biased optimistic
  kAdversarialSpike = 9,  // background spikes phase-locked to the control period
};

inline constexpr std::string_view kFaultKindNames[] = {
    "report_dropout", "report_stale", "report_noise", "control_blackout", "grant_shortfall",
    "table_fault", "machine_burst", "machine_slowdown", "profile_skew", "adversarial_spike"};
static_assert(std::size(kFaultKindNames) == static_cast<size_t>(FaultKind::kAdversarialSpike) + 1);
constexpr const auto& WireNames(FaultKind) { return kFaultKindNames; }
inline const char* FaultKindName(FaultKind kind) { return EnumName(kind).data(); }
// Inverse of FaultKindName — fault-plan JSONL, scenario files and the chaos CLI all
// resolve names through this one function. Returns nullopt for unknown tokens.
inline std::optional<FaultKind> ParseFaultKind(std::string_view token) {
  return EnumFromName<FaultKind>(token);
}

// Which degraded-mode action the hardened controller took (control_loop.h).
enum class DegradeMode : int {
  kStaleHold = 0,              // brief report dropout: held the last safe allocation
  kPessimisticEscalation = 1,  // blind past the threshold: escalate toward max
  kBlackoutCatchup = 2,        // missed ticks detected: snap to raw, skip hysteresis
  kGrantCompensation = 3,      // inflate the request to offset observed shortfall
  kFallbackModel = 4,          // table lookups failing: fall back to the Amdahl model
  kModelLossEscalation = 5,    // no fallback model left: worst-case escalation
  kStragglerEscalation = 6,    // realized progress rate lags the model's: escalate
};

inline constexpr std::string_view kDegradeModeNames[] = {
    "stale_hold", "pessimistic_escalation", "blackout_catchup", "grant_compensation",
    "fallback_model", "model_loss_escalation", "straggler_escalation"};
static_assert(std::size(kDegradeModeNames) ==
              static_cast<size_t>(DegradeMode::kStragglerEscalation) + 1);
constexpr const auto& WireNames(DegradeMode) { return kDegradeModeNames; }
inline const char* DegradeModeName(DegradeMode mode) { return EnumName(mode).data(); }

// An injected fault took effect. Emitted by the injection site (simulator or table
// cache), not by the plan — only faults that actually bit appear in the trace.
struct FaultInjectedEvent {
  FaultKind fault = FaultKind::kReportDropout;
  int window = 0;  // index into the FaultPlan's window list
  int job = -1;    // affected job, -1 when cluster-wide
  double magnitude = 0.0;
  // Kind-specific detail: report age (dropout/stale), tokens requested (shortfall),
  // machines downed (burst), held tokens (blackout).
  double detail = 0.0;
  // Second kind-specific detail: tokens granted (shortfall), tasks killed (burst).
  double detail2 = 0.0;
};

// The hardened controller degraded its decision in response to a fault symptom.
struct DegradedDecisionEvent {
  int job = 0;
  DegradeMode mode = DegradeMode::kStaleHold;
  double elapsed_seconds = 0.0;
  double report_age_seconds = 0.0;
  int granted_tokens = 0;
  // Mode-specific: escalation target (escalations), grant ratio (compensation).
  double value = 0.0;
};

// A task entered the pending queue and began waiting for a token. Together with
// TaskDispatchEvent this makes queue delay observable in the trace — the piece the
// postmortem analyzer (analysis/postmortem.h) needs to reconstruct per-attempt
// ready -> dispatch -> complete/killed spans. `requeued` distinguishes first
// DAG-readiness from re-entry after a kill put the task back on the queue.
struct TaskReadyEvent {
  int job = 0;
  int stage = 0;
  int task = 0;  // flat task id
  bool requeued = false;
};

// Per-job SLO health, as tracked online by the time-series recorder
// (timeseries/timeseries.h). Ordered by severity; kMissed is terminal.
enum class SloState : int {
  kOnTrack = 0,  // predicted completion clears the deadline
  kAtRisk = 1,   // controller predicts a miss (negative slack)
  kMissed = 2,   // deadline passed before completion — terminal
};

inline constexpr std::string_view kSloStateNames[] = {"on_track", "at_risk", "missed"};
static_assert(std::size(kSloStateNames) == static_cast<size_t>(SloState::kMissed) + 1);
constexpr const auto& WireNames(SloState) { return kSloStateNames; }
inline const char* SloStateName(SloState state) { return EnumName(state).data(); }

// The per-job SLO health state machine changed state. Emitted by the
// TimeSeriesRecorder so postmortems can join live health against realized
// deadline verdicts. `slack_seconds` is deadline - (elapsed + predicted
// remaining) at the transition — negative when a miss is predicted.
struct SloStateChangeEvent {
  int job = 0;
  SloState from = SloState::kOnTrack;
  SloState to = SloState::kOnTrack;
  double elapsed_seconds = 0.0;
  double slack_seconds = 0.0;
};

// The control loop served an allocation decision from the decision cache instead of
// rescanning (src/core/decision_cache.h). `signature` is the cache key that hit:
// the config/utility fingerprint chained with the progress bucket. Marker only —
// the decision itself is identical to what a rescan would have produced, so
// stripping these events from a cached trace yields the uncached trace byte for
// byte (the decision_cache differential tests rely on exactly that).
struct ControlDecisionCachedEvent {
  int job = 0;
  double elapsed_seconds = 0.0;
  double progress = 0.0;
  int raw_allocation = 0;
  uint64_t signature = 0;
};

using TraceEventPayload =
    std::variant<ControlTickEvent, PredictionLookupEvent, AllocationChangeEvent,
                 UtilityChangeEvent, TableCacheLookupEvent, TableCacheStoreEvent,
                 TableCacheEvictEvent, JobSubmitEvent, JobFinishEvent, TaskDispatchEvent,
                 TaskCompleteEvent, TaskKilledEvent, SpeculativeLaunchEvent,
                 MachineFailureEvent, MachineRecoverEvent, FaultInjectedEvent,
                 DegradedDecisionEvent, TaskReadyEvent, SloStateChangeEvent,
                 ControlDecisionCachedEvent>;

// Stable event-kind tags; indices match TraceEventPayload alternatives.
enum class EventKind : int {
  kControlTick = 0,
  kPredictionLookup = 1,
  kAllocationChange = 2,
  kUtilityChange = 3,
  kTableCacheLookup = 4,
  kTableCacheStore = 5,
  kTableCacheEvict = 6,
  kJobSubmit = 7,
  kJobFinish = 8,
  kTaskDispatch = 9,
  kTaskComplete = 10,
  kTaskKilled = 11,
  kSpeculativeLaunch = 12,
  kMachineFailure = 13,
  kMachineRecover = 14,
  kFaultInjected = 15,
  kDegradedDecision = 16,
  // Appended after the fault-injection kinds to keep earlier wire tags stable.
  kTaskReady = 17,
  kSloStateChange = 18,
  kControlDecisionCached = 19,
};

// The stable wire name of each kind (the "kind" field of a JSONL line).
inline constexpr std::string_view kEventKindNames[] = {
    "control_tick", "prediction_lookup", "allocation_change", "utility_change",
    "table_cache_lookup", "table_cache_store", "table_cache_evict", "job_submit", "job_finish",
    "task_dispatch", "task_complete", "task_killed", "speculative_launch", "machine_failure",
    "machine_recover", "fault_injected", "degraded_decision", "task_ready", "slo_state_change",
    "control_decision_cached"};
static_assert(std::size(kEventKindNames) ==
              static_cast<size_t>(EventKind::kControlDecisionCached) + 1);
static_assert(std::size(kEventKindNames) == std::variant_size_v<TraceEventPayload>);
constexpr const auto& WireNames(EventKind) { return kEventKindNames; }
inline const char* EventKindName(EventKind kind) { return EnumName(kind).data(); }

struct TraceEvent {
  // Simulated seconds (0 for offline events: cache traffic during a table build).
  double time_seconds = 0.0;
  TraceEventPayload payload;

  TraceEvent() = default;
  template <typename Payload>
  TraceEvent(double time, Payload&& p) : time_seconds(time), payload(std::forward<Payload>(p)) {}

  EventKind kind() const { return static_cast<EventKind>(payload.index()); }
};

}  // namespace jockey

#endif  // SRC_OBS_TRACE_EVENT_H_
