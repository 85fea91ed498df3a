// Struct-of-arrays storage for in-flight task attempts.
//
// The cluster simulator's dispatch→complete/kill path used to key attempts in a
// per-job unordered_map<attempt_id, struct> — a heap allocation per dispatch, a
// hash probe per completion, and pointer-chasing scans for the schedulers that
// repeatedly pick the newest/oldest attempt (demotion, promotion, eviction,
// machine-failure kills, speculation). This arena replaces it:
//
//  * one slot per in-flight attempt, recycled through a free list — after warmup
//    the dispatch path allocates nothing;
//  * fields live in parallel arrays, so the scans that touch only one field (the
//    machine-failure scan reads machine, the straggler scan exec_start) stream
//    through contiguous memory;
//  * handles are slot index + generation: an event scheduled against an attempt
//    that has since completed or been killed simply fails the generation check,
//    which is how stale timer events are dropped;
//  * a monotonic per-attempt sequence number orders attempts by start: attempts
//    are allocated at the current simulated time, which never runs backwards, so
//    sorting by order() is sorting by attempt_start with a deterministic
//    tie-break at equal start times (the legacy map left ties to hash-iteration
//    order). The simulator keeps its per-job newest/oldest lists sorted by it.
//
// The caller owns the per-job list of active slots (JobState::active); the arena
// maintains each slot's position in that list so removal is O(1) swap-remove.

#ifndef SRC_CLUSTER_ATTEMPT_ARENA_H_
#define SRC_CLUSTER_ATTEMPT_ARENA_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "src/util/event_queue.h"

namespace jockey {

class AttemptArena {
 public:
  // slot in the low 32 bits, generation in the high 32. Generations start at 1,
  // so no live handle is ever 0.
  using Handle = uint64_t;
  static constexpr Handle kNone = 0;

  static uint32_t SlotOf(Handle handle) { return static_cast<uint32_t>(handle); }

  // `attempt_start` must not precede any earlier allocation's (see order()).
  Handle Allocate(std::vector<uint32_t>& active, int flat_task, int machine,
                  SimTime attempt_start, SimTime exec_start, SimTime exec_end, bool spare,
                  bool speculative) {
    uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<uint32_t>(flat_task_.size());
      flat_task_.push_back(0);
      machine_.push_back(0);
      attempt_start_.push_back(0.0);
      exec_start_.push_back(0.0);
      exec_end_.push_back(0.0);
      flags_.push_back(0);
      order_.push_back(0);
      generation_.push_back(1);
      pos_.push_back(0);
    }
    flat_task_[slot] = flat_task;
    machine_[slot] = machine;
    attempt_start_[slot] = attempt_start;
    exec_start_[slot] = exec_start;
    exec_end_[slot] = exec_end;
    flags_[slot] = static_cast<uint8_t>((spare ? kSpare : 0) | (speculative ? kSpeculative : 0));
    order_[slot] = next_order_++;
    pos_[slot] = static_cast<uint32_t>(active.size());
    active.push_back(slot);
    return MakeHandle(slot);
  }

  // Removes the attempt from its job's active list and recycles the slot. The
  // generation bump invalidates every outstanding handle to it.
  void Release(Handle handle, std::vector<uint32_t>& active) {
    assert(Alive(handle));
    uint32_t slot = SlotOf(handle);
    uint32_t at = pos_[slot];
    assert(at < active.size() && active[at] == slot);
    uint32_t moved = active.back();
    active[at] = moved;
    pos_[moved] = at;
    active.pop_back();
    ++generation_[slot];
    free_.push_back(slot);
  }

  bool Alive(Handle handle) const {
    uint32_t slot = SlotOf(handle);
    return slot < generation_.size() &&
           generation_[slot] == static_cast<uint32_t>(handle >> 32);
  }

  Handle handle_of(uint32_t slot) const { return MakeHandle(slot); }

  int flat_task(uint32_t slot) const { return flat_task_[slot]; }
  int machine(uint32_t slot) const { return machine_[slot]; }
  SimTime attempt_start(uint32_t slot) const { return attempt_start_[slot]; }
  SimTime exec_start(uint32_t slot) const { return exec_start_[slot]; }
  SimTime exec_end(uint32_t slot) const { return exec_end_[slot]; }
  bool spare(uint32_t slot) const { return (flags_[slot] & kSpare) != 0; }
  bool speculative(uint32_t slot) const { return (flags_[slot] & kSpeculative) != 0; }
  // Monotonic across all attempts, and therefore in attempt_start order.
  uint64_t order(uint32_t slot) const { return order_[slot]; }

  void set_spare(uint32_t slot, bool spare) {
    flags_[slot] = static_cast<uint8_t>(spare ? (flags_[slot] | kSpare)
                                              : (flags_[slot] & ~kSpare));
  }

 private:
  static constexpr uint8_t kSpare = 1;
  static constexpr uint8_t kSpeculative = 2;

  Handle MakeHandle(uint32_t slot) const {
    return static_cast<Handle>(slot) | (static_cast<Handle>(generation_[slot]) << 32);
  }

  std::vector<int32_t> flat_task_;
  std::vector<int32_t> machine_;
  std::vector<SimTime> attempt_start_;
  std::vector<SimTime> exec_start_;
  std::vector<SimTime> exec_end_;
  std::vector<uint8_t> flags_;
  std::vector<uint64_t> order_;
  std::vector<uint32_t> generation_;
  std::vector<uint32_t> pos_;  // index in the owning job's active list
  std::vector<uint32_t> free_;
  uint64_t next_order_ = 1;
};

}  // namespace jockey

#endif  // SRC_CLUSTER_ATTEMPT_ARENA_H_
