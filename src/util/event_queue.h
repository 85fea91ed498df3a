// The SimTime alias shared by every simulation layer, the (when, insertion-seq)
// event order, and the typed 4-ary-heap event queue.
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

// Typed 4-ary min-heap event queue over a vector of (when, seq, payload) nodes.
// Four children per node halve the depth of a binary heap, so a push climbs fewer
// levels and a pop's sift-down compares four adjacent nodes per level, one or two
// cache lines. The (when, seq) order is strict and total, so the pop order is that
// of any correct priority queue.
template <typename Payload>
class HeapEventQueue {
 public:
  // `capacity`: pending events to reserve room for up front (a caller that knows
  // its bound avoids the vector's growth steps).
  explicit HeapEventQueue(size_t capacity = 0) { heap_.reserve(capacity); }

  // Throws std::logic_error if when < now().
  void ScheduleAt(SimTime when, Payload payload) {
    internal::CheckNotInPast(when, now_);
    Node node{when, next_seq_++, std::move(payload)};
    size_t hole = heap_.size();
    heap_.emplace_back();
    while (hole > 0) {
      const size_t parent = (hole - 1) / kArity;
      if (!internal::FiresBefore(node, heap_[parent])) {
        break;
      }
      heap_[hole] = std::move(heap_[parent]);
      hole = parent;
    }
    heap_[hole] = std::move(node);
  }
  void ScheduleAfter(SimTime delay, Payload p) { ScheduleAt(now_ + delay, std::move(p)); }

  // Pops the earliest event, advancing now() to its time. False when empty.
  bool PopNext(Payload& out) {
    if (heap_.empty()) {
      return false;
    }
    now_ = heap_.front().when;
    out = std::move(heap_.front().payload);
    Node last = std::move(heap_.back());
    heap_.pop_back();
    const size_t n = heap_.size();
    if (n == 0) {
      return true;
    }
    // Sift the former last node down from the root into the hole the pop left.
    size_t hole = 0;
    for (;;) {
      const size_t first = hole * kArity + 1;
      if (first >= n) {
        break;
      }
      size_t best = first;
      const size_t end = std::min(first + kArity, n);
      for (size_t c = first + 1; c < end; ++c) {
        if (internal::FiresBefore(heap_[c], heap_[best])) {
          best = c;
        }
      }
      if (!internal::FiresBefore(heap_[best], last)) {
        break;
      }
      heap_[hole] = std::move(heap_[best]);
      hole = best;
    }
    heap_[hole] = std::move(last);
    return true;
  }

  SimTime now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  size_t pending() const { return heap_.size(); }

 private:
  using Node = internal::TimedEvent<Payload>;
  static constexpr size_t kArity = 4;

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  std::vector<Node> heap_;
};

}  // namespace jockey

#endif  // SRC_UTIL_EVENT_QUEUE_H_
