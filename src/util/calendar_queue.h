// Bucketed calendar queue (Brown 1988): the event queue of the cluster simulator,
// whose fleet workloads keep many events pending (DESIGN.md, "Event queues").
//
// Events within the current "epoch" (bucket_count * bucket_width seconds) live in a
// flat slab of fixed-size bucket slots (a contiguous Node array, four slots per
// bucket, occupancy in a parallel byte array) kept sorted per bucket; a bucket that
// outgrows its slots spills to a per-bucket vector, and far-future events wait in an
// overflow min-heap and migrate in when their epoch begins. The flat slab is the
// point: an insert touches one or two cache lines and the empty-bucket scan reads 64
// occupancy bytes per line, where vector-of-vectors pays a pointer chase per bucket.
// Buckets double/halve and the bucket width re-derives from observed inter-event
// gaps whenever occupancy drifts, so enqueue/dequeue stay O(1) amortized across
// workloads with second-scale and hour-scale horizons alike.
//
// Same API and the same (when, insertion-seq) total order as HeapEventQueue
// (event_queue.h), so a seeded simulation is bit-identical on either.

#ifndef SRC_UTIL_CALENDAR_QUEUE_H_
#define SRC_UTIL_CALENDAR_QUEUE_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/event_queue.h"  // SimTime, internal::TimedEvent

namespace jockey {

// Bucketed calendar queue (see file comment for the design).
template <typename Payload>
class CalendarQueue {
 public:
  explicit CalendarQueue(double bucket_width = 1.0, size_t num_buckets = 32) {
    SetWidth(bucket_width > 0.0 ? bucket_width : 1.0);
    AllocateBuckets(std::max<size_t>(num_buckets, kMinBuckets));
  }

  // Throws std::logic_error if when < now().
  void ScheduleAt(SimTime when, Payload payload) {
    internal::CheckNotInPast(when, now_);
    Insert(Node{when, next_seq_++, std::move(payload)});
    ++size_;
    if (size_ > 2 * bucket_count_) {
      Rebuild(2 * bucket_count_);
    }
  }
  void ScheduleAfter(SimTime delay, Payload p) { ScheduleAt(now_ + delay, std::move(p)); }

  // Pops the earliest event, advancing now() to its time. False when empty.
  bool PopNext(Payload& out) {
    if (size_ == 0) {
      return false;
    }
    for (;;) {
      while (cursor_ < bucket_count_) {
        uint8_t count = counts_[cursor_];
        if (count != 0) {
          // Buckets are sorted descending by (when, seq): the minimum is at the
          // occupied end and moves out without disturbing the rest.
          Node node;
          if (count != kSpilled) {
            node = std::move(slots_[cursor_ * kSlotsPerBucket + count - 1]);
            counts_[cursor_] = count - 1;
          } else {
            Bucket& spill = spill_[cursor_];
            node = std::move(spill.back());
            spill.pop_back();
            if (spill.empty()) {
              counts_[cursor_] = 0;
            }
          }
          --size_;
          now_ = node.when;
          out = std::move(node.payload);
          if (size_ < bucket_count_ / 2 && bucket_count_ > kMinBuckets) {
            Rebuild(bucket_count_ / 2);
          }
          return true;
        }
        ++cursor_;
      }
      // Current epoch exhausted; jump straight to the epoch holding the overflow
      // minimum (skipping empty epochs) and migrate its events into buckets.
      assert(!overflow_.empty() && "size_ > 0 but no events anywhere");
      AdvanceEpochTo(overflow_.front().when);
    }
  }

  SimTime now() const { return now_; }
  bool empty() const { return size_ == 0; }
  size_t pending() const { return size_; }
  size_t bucket_count() const { return bucket_count_; }
  double bucket_width() const { return width_; }

 private:
  using Node = internal::TimedEvent<Payload>;
  using Bucket = std::vector<Node>;
  static constexpr size_t kMinBuckets = 16;
  // Inline slot capacity per bucket. The resize policy holds occupancy between
  // 0.5 and 2 events per bucket, so four slots absorb normal clustering; denser
  // bursts (or degenerate fixed geometries) spill to a per-bucket vector.
  static constexpr size_t kSlotsPerBucket = 4;
  static constexpr uint8_t kSpilled = 0xFF;

  static bool Earlier(const Node& a, const Node& b) { return internal::FiresBefore(a, b); }
  // Min-heap comparator for the overflow vector heap.
  static bool Later(const Node& a, const Node& b) { return internal::FiresBefore(b, a); }

  double day_length() const { return width_ * static_cast<double>(bucket_count_); }
  double epoch_end() const { return epoch_start_ + day_length(); }

  void SetWidth(double width) {
    width_ = width;
    inv_width_ = 1.0 / width;
  }

  void AllocateBuckets(size_t count) {
    bucket_count_ = count;
    slots_.assign(count * kSlotsPerBucket, Node());
    counts_.assign(count, 0);
    spill_.assign(count, Bucket());
  }

  void Insert(Node node) {
    if (node.when < epoch_start_) {
      // Only reachable if an epoch jumped forward past a caller that then
      // scheduled into the gap — PopNext's pop-after-advance makes that
      // impossible from simulator code, but stay correct regardless.
      RewindEpochTo(node.when);
    }
    double offset = (node.when - epoch_start_) * inv_width_;
    if (offset >= static_cast<double>(bucket_count_)) {
      overflow_.push_back(std::move(node));
      std::push_heap(overflow_.begin(), overflow_.end(), Later);
      return;
    }
    BucketInsert(static_cast<size_t>(offset), std::move(node));
  }

  // Keeps the bucket sorted descending by (when, seq); typical buckets hold a
  // couple of events, so the linear sift is cheaper than any comparison-tree.
  void BucketInsert(size_t bucket, Node node) {
    uint8_t count = counts_[bucket];
    if (count < kSlotsPerBucket) {
      Node* base = slots_.data() + bucket * kSlotsPerBucket;
      base[count] = std::move(node);
      for (size_t i = count; i > 0 && Earlier(base[i - 1], base[i]); --i) {
        std::swap(base[i - 1], base[i]);
      }
      counts_[bucket] = count + 1;
      return;
    }
    Bucket& spill = spill_[bucket];
    if (count != kSpilled) {
      // Slots full: move them (already sorted) into the spill vector, which
      // holds the whole bucket until it drains empty again.
      Node* base = slots_.data() + bucket * kSlotsPerBucket;
      spill.reserve(2 * kSlotsPerBucket);
      for (size_t i = 0; i < kSlotsPerBucket; ++i) {
        spill.push_back(std::move(base[i]));
      }
      counts_[bucket] = kSpilled;
    }
    spill.push_back(std::move(node));
    for (size_t i = spill.size() - 1; i > 0 && Earlier(spill[i - 1], spill[i]); --i) {
      std::swap(spill[i - 1], spill[i]);
    }
  }

  void AdvanceEpochTo(SimTime when) {
    epoch_start_ = std::floor(when / day_length()) * day_length();
    // Guard against floor landing one day high on exact multiples.
    if (when < epoch_start_) {
      epoch_start_ -= day_length();
    }
    cursor_ = 0;
    MigrateOverflow();
  }

  // Moves every bucketed event into `out` (order unspecified), emptying buckets.
  void DrainBucketsInto(std::vector<Node>& out) {
    for (size_t b = 0; b < bucket_count_; ++b) {
      uint8_t count = counts_[b];
      if (count == 0) {
        continue;
      }
      if (count != kSpilled) {
        Node* base = slots_.data() + b * kSlotsPerBucket;
        for (size_t i = 0; i < count; ++i) {
          out.push_back(std::move(base[i]));
        }
      } else {
        for (Node& node : spill_[b]) {
          out.push_back(std::move(node));
        }
        spill_[b].clear();
      }
      counts_[b] = 0;
    }
  }

  void RewindEpochTo(SimTime when) {
    // Push every bucketed event back to overflow, then re-anchor.
    DrainBucketsInto(overflow_);
    std::make_heap(overflow_.begin(), overflow_.end(), Later);
    AdvanceEpochTo(when);
  }

  void MigrateOverflow() {
    const double end = epoch_end();
    while (!overflow_.empty() && overflow_.front().when < end) {
      std::pop_heap(overflow_.begin(), overflow_.end(), Later);
      Node node = std::move(overflow_.back());
      overflow_.pop_back();
      double offset = (node.when - epoch_start_) * inv_width_;
      size_t index = std::min(static_cast<size_t>(offset), bucket_count_ - 1);
      BucketInsert(index, std::move(node));
    }
  }

  // Resizes to `new_bucket_count` buckets, re-deriving the bucket width from
  // observed inter-event gaps (a trimmed variant of Brown's rule) and
  // rebucketing everything. Deterministic: a pure function of queue contents.
  void Rebuild(size_t new_bucket_count) {
    new_bucket_count = std::max(new_bucket_count, kMinBuckets);
    std::vector<Node> all;
    all.reserve(size_);
    DrainBucketsInto(all);
    for (Node& node : overflow_) {
      all.push_back(std::move(node));
    }
    overflow_.clear();
    std::sort(all.begin(), all.end(), Earlier);

    if (all.size() >= 2) {
      // Width = 4x the average inter-event gap over the interdecile (p10..p90)
      // span. Sampling only the head underestimates badly under clustered
      // arrivals (e.g. exponential task endings): the derived day comes out
      // shorter than the pending spread and most inserts churn through the
      // overflow heap — triple-handled instead of bucketed once. Trimming the
      // outer deciles keeps sparse far-future tails from stretching the width
      // the other way.
      size_t lo = all.size() / 10;
      size_t hi = all.size() - 1 - all.size() / 10;
      if (hi > lo) {
        double span = all[hi].when - all[lo].when;
        if (span > 0.0) {
          SetWidth(4.0 * span / static_cast<double>(hi - lo));
        }
      }
    }

    AllocateBuckets(new_bucket_count);
    cursor_ = 0;
    if (all.empty()) {
      epoch_start_ = std::floor(now_ / day_length()) * day_length();
      return;
    }
    epoch_start_ = std::floor(all.front().when / day_length()) * day_length();
    if (all.front().when < epoch_start_) {
      epoch_start_ -= day_length();
    }
    const double end = epoch_end();
    for (Node& node : all) {
      if (node.when < end) {
        BucketInsert(static_cast<size_t>((node.when - epoch_start_) * inv_width_),
                     std::move(node));
      } else {
        overflow_.push_back(std::move(node));
      }
    }
    // `all` was sorted, so overflow_ arrived ascending: already a valid min-heap,
    // but make_heap keeps us honest about the invariant.
    std::make_heap(overflow_.begin(), overflow_.end(), Later);
  }

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  size_t size_ = 0;
  double width_ = 1.0;
  double inv_width_ = 1.0;
  double epoch_start_ = 0.0;
  size_t cursor_ = 0;
  size_t bucket_count_ = 0;
  // Flat bucket storage: bucket b owns slots_[b*kSlotsPerBucket ..] with
  // occupancy counts_[b]; counts_[b] == kSpilled means the whole bucket lives in
  // spill_[b] instead (until it drains empty).
  std::vector<Node> slots_;
  std::vector<uint8_t> counts_;
  std::vector<Bucket> spill_;
  std::vector<Node> overflow_;
};

}  // namespace jockey

#endif  // SRC_UTIL_CALENDAR_QUEUE_H_
