// The ObserverSink API: the single funnel every subsystem reports through.
//
// An ObserverSink receives typed TraceEvents; a MetricsRegistry (metrics.h)
// accumulates counters / gauges / histograms. The two are bundled into an Observer —
// a two-pointer handle that components store by value and that defaults to fully
// disabled. The overhead contract: with no sink and no registry attached, every
// emission site is one branch on a null pointer and constructs nothing. (A null
// sink plus registry last measured +1.1–1.7% on the control-loop step and
// +5.1–5.9% on cluster-sim throughput; perfbench's obs.trace_slowdown reports the
// end-to-end cost of tracing.)
//
// Ownership: the Observer does not own its sink or registry; the caller that wires
// observability (the CLI, the experiment harness, a test) keeps both alive for the
// duration of the run. Sinks are not thread-safe — all emission sites run on the
// single discrete-event thread or in the offline build's merge phase.

#ifndef SRC_OBS_OBSERVER_H_
#define SRC_OBS_OBSERVER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace_event.h"

namespace jockey {

class ObserverSink {
 public:
  virtual ~ObserverSink() = default;
  virtual void OnEvent(const TraceEvent& event) = 0;
};

// Swallows everything. Attaching a NullSink exercises the full emission path
// (event construction + virtual dispatch) without producing output — the subject of
// the overhead benchmark.
class NullSink final : public ObserverSink {
 public:
  void OnEvent(const TraceEvent& /*event*/) override {}
};

// Buffers events in memory; the sink tests and `report`-style post-processing use it.
class VectorSink final : public ObserverSink {
 public:
  void OnEvent(const TraceEvent& event) override { events_.push_back(event); }
  const std::vector<TraceEvent>& events() const { return events_; }
  // Moves the buffer out of an expiring sink (how RunExperiment hands a captured
  // trace to ExperimentResult::events without copying it).
  std::vector<TraceEvent> TakeEvents() && { return std::move(events_); }
  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

// Forwards each event to two sinks; either may be null. The experiment harness
// uses it to capture events for post-run analysis (the postmortem analyzer)
// without disturbing whatever sink the caller already attached.
class TeeSink final : public ObserverSink {
 public:
  TeeSink(ObserverSink* first, ObserverSink* second) : first_(first), second_(second) {}
  void OnEvent(const TraceEvent& event) override {
    if (first_ != nullptr) {
      first_->OnEvent(event);
    }
    if (second_ != nullptr) {
      second_->OnEvent(event);
    }
  }

 private:
  ObserverSink* first_;
  ObserverSink* second_;
};

// The handle threaded through ClusterSimulator, JockeyController, Jockey,
// BuildCompletionTable and TableCache. Copyable, default-disabled; either half may
// be attached independently (trace without metrics, metrics without trace).
class Observer {
 public:
  Observer() = default;
  Observer(ObserverSink* sink, MetricsRegistry* metrics) : sink_(sink), metrics_(metrics) {}

  bool tracing() const { return sink_ != nullptr; }
  bool metering() const { return metrics_ != nullptr; }
  bool enabled() const { return tracing() || metering(); }

  ObserverSink* sink() const { return sink_; }
  MetricsRegistry* metrics() const { return metrics_; }

  void Emit(const TraceEvent& event) const {
    if (sink_ != nullptr) {
      sink_->OnEvent(event);
    }
  }
  // Guard payload construction behind tracing() at call sites that build non-trivial
  // events; for flat payloads this overload keeps the call site to one line. The
  // forwarding reference moves the call-site temporary straight into the variant —
  // one payload copy per event, on the cluster simulator's per-task path.
  template <typename Payload>
  void Emit(double time_seconds, Payload&& payload) const {
    if (sink_ != nullptr) {
      sink_->OnEvent(TraceEvent(time_seconds, std::forward<Payload>(payload)));
    }
  }

  void Count(const std::string& name, int64_t delta = 1) const {
    if (metrics_ != nullptr) {
      metrics_->Add(name, delta);
    }
  }
  void Set(const std::string& name, double value) const {
    if (metrics_ != nullptr) {
      metrics_->SetGauge(name, value);
    }
  }
  void Observe(const std::string& name, double value) const {
    if (metrics_ != nullptr) {
      metrics_->Observe(name, value);
    }
  }

 private:
  ObserverSink* sink_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
};

}  // namespace jockey

#endif  // SRC_OBS_OBSERVER_H_
