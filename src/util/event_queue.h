// The SimTime alias shared by every simulation layer, the (when, insertion-seq)
// event order, and the typed binary-heap event queue.
//
// Both simulators schedule small POD event records instead of type-erased
// callbacks, so scheduling an event allocates nothing beyond amortized vector
// growth and firing one is a switch on the caller's side. Each simulator holds the
// queue its workload measured fastest on (DESIGN.md, "Event queues"): JobSimulator
// holds this HeapEventQueue; ClusterSimulator holds the CalendarQueue in
// calendar_queue.h.
//
// Determinism contract: events fire in strictly increasing (when, insertion-seq)
// order, so equal-time events fire in insertion order. Both queues implement
// exactly this total order, so swapping one for the other changes no seeded
// result (CalendarQueueTest.LockstepDifferentialAgainstHeapEngine is the oracle).

#ifndef SRC_UTIL_EVENT_QUEUE_H_
#define SRC_UTIL_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace jockey {

// Simulated time, in seconds since the start of the simulation.
using SimTime = double;

namespace internal {

template <typename Payload>
struct TimedEvent {
  SimTime when = 0.0;
  uint64_t seq = 0;
  Payload payload{};
};

// Strict total order: earlier time first, ties by insertion order.
template <typename Payload>
inline bool FiresBefore(const TimedEvent<Payload>& a, const TimedEvent<Payload>& b) {
  if (a.when != b.when) {
    return a.when < b.when;
  }
  return a.seq < b.seq;
}

// Both queues reject an event in the past in every build type: a past event
// would silently fire out of order, so it is a caller bug that must be loud.
inline void CheckNotInPast(SimTime when, SimTime now) {
  if (when < now) {
    throw std::logic_error("event scheduled in the past: when=" + std::to_string(when) +
                           " < now=" + std::to_string(now));
  }
}

}  // namespace internal

// Typed binary-heap event queue (std::push_heap/pop_heap over a vector).
template <typename Payload>
class HeapEventQueue {
 public:
  // Throws std::logic_error if when < now().
  void ScheduleAt(SimTime when, Payload payload) {
    internal::CheckNotInPast(when, now_);
    heap_.push_back(Node{when, next_seq_++, std::move(payload)});
    std::push_heap(heap_.begin(), heap_.end(), Later);
  }
  void ScheduleAfter(SimTime delay, Payload p) { ScheduleAt(now_ + delay, std::move(p)); }

  // Pops the earliest event, advancing now() to its time. False when empty.
  bool PopNext(Payload& out) {
    if (heap_.empty()) {
      return false;
    }
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    Node node = std::move(heap_.back());
    heap_.pop_back();
    now_ = node.when;
    out = std::move(node.payload);
    return true;
  }

  SimTime now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  size_t pending() const { return heap_.size(); }

 private:
  using Node = internal::TimedEvent<Payload>;
  static bool Later(const Node& a, const Node& b) { return internal::FiresBefore(b, a); }

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  std::vector<Node> heap_;
};

}  // namespace jockey

#endif  // SRC_UTIL_EVENT_QUEUE_H_
