// Tests for the two typed event queues (event_queue.h, calendar_queue.h): the
// (when, insertion-seq) determinism contract on both, the loud rejection of events
// in the past, calendar-specific behavior (overflow, adaptive resize, epoch jumps),
// and a randomized lockstep differential of the calendar queue against the heap.

#include "src/util/calendar_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/util/event_queue.h"
#include "src/util/rng.h"

namespace jockey {
namespace {

TEST(HeapEventQueueTest, PopsInTimeOrderAndAdvancesNow) {
  HeapEventQueue<int> q;
  q.ScheduleAt(5.0, 1);
  q.ScheduleAt(1.0, 2);
  q.ScheduleAt(3.0, 3);
  EXPECT_EQ(q.pending(), 3u);

  int out = -1;
  ASSERT_TRUE(q.PopNext(out));
  EXPECT_EQ(out, 2);
  EXPECT_DOUBLE_EQ(q.now(), 1.0);
  ASSERT_TRUE(q.PopNext(out));
  EXPECT_EQ(out, 3);
  ASSERT_TRUE(q.PopNext(out));
  EXPECT_EQ(out, 1);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  EXPECT_FALSE(q.PopNext(out));
  EXPECT_TRUE(q.empty());
}

template <typename Queue>
void ExpectEqualTimesFireInInsertionOrder() {
  Queue q;
  q.ScheduleAt(10.0, 1);
  q.ScheduleAt(10.0, 2);
  q.ScheduleAt(5.0, 0);
  q.ScheduleAt(10.0, 3);

  std::vector<int> order;
  int out = -1;
  while (q.PopNext(out)) {
    order.push_back(out);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueuesTest, EqualTimeEventsFireInInsertionOrderOnBothQueues) {
  ExpectEqualTimesFireInInsertionOrder<HeapEventQueue<int>>();
  ExpectEqualTimesFireInInsertionOrder<CalendarQueue<int>>();
}

template <typename Queue>
void ExpectScheduleAfterIsRelative() {
  Queue q;
  q.ScheduleAfter(2.0, 1);
  int out = -1;
  ASSERT_TRUE(q.PopNext(out));
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  q.ScheduleAfter(3.0, 2);
  ASSERT_TRUE(q.PopNext(out));
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(EventQueuesTest, ScheduleAfterIsRelativeToCurrentTimeOnBothQueues) {
  ExpectScheduleAfterIsRelative<HeapEventQueue<int>>();
  ExpectScheduleAfterIsRelative<CalendarQueue<int>>();
}

// A past event must throw in every build type (NDEBUG included), naming both
// times, and leave the queue as it was.
template <typename Queue>
void ExpectPastEventThrows() {
  Queue q;
  q.ScheduleAt(4.0, 1);
  q.ScheduleAt(9.0, 2);
  int out = -1;
  ASSERT_TRUE(q.PopNext(out));
  ASSERT_DOUBLE_EQ(q.now(), 4.0);
  try {
    q.ScheduleAt(3.5, 3);
    ADD_FAILURE() << "scheduling into the past did not throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("3.5"), std::string::npos) << what;
    EXPECT_NE(what.find("4.0"), std::string::npos) << what;
  }
  EXPECT_THROW(q.ScheduleAfter(-0.25, 4), std::logic_error);
  EXPECT_EQ(q.pending(), 1u);
  q.ScheduleAt(q.now(), 5);  // exactly now is allowed
  ASSERT_TRUE(q.PopNext(out));
  EXPECT_EQ(out, 5);
  ASSERT_TRUE(q.PopNext(out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(q.empty());
}

TEST(HeapEventQueueTest, SchedulingIntoThePastThrows) {
  ExpectPastEventThrows<HeapEventQueue<int>>();
}

TEST(CalendarQueueTest, SchedulingIntoThePastThrows) {
  ExpectPastEventThrows<CalendarQueue<int>>();
}

TEST(CalendarQueueTest, FarFutureEventsWaitInOverflowAndStillFireInOrder) {
  // Default geometry: 32 buckets x 1s => events past ~32s go to the overflow heap.
  CalendarQueue<int> q;
  q.ScheduleAt(1.0e9, 1);
  q.ScheduleAt(0.5, 0);
  q.ScheduleAt(5.0e8, 2);
  q.ScheduleAt(1.0e9, 3);  // equal-time tie in the far future

  std::vector<int> order;
  int out = -1;
  while (q.PopNext(out)) {
    order.push_back(out);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 1.0e9);
}

TEST(CalendarQueueTest, EmptyEpochsAreSkippedNotScanned) {
  // One event billions of seconds out: PopNext must jump straight to its epoch.
  CalendarQueue<int> q;
  q.ScheduleAt(7.7e9, 42);
  int out = -1;
  ASSERT_TRUE(q.PopNext(out));
  EXPECT_EQ(out, 42);
  EXPECT_DOUBLE_EQ(q.now(), 7.7e9);
}

TEST(CalendarQueueTest, BucketCountTracksOccupancy) {
  CalendarQueue<int> q(/*bucket_width=*/1.0, /*num_buckets=*/16);
  const size_t initial = q.bucket_count();
  for (int i = 0; i < 500; ++i) {
    q.ScheduleAt(0.5 * i, i);
  }
  EXPECT_GT(q.bucket_count(), initial) << "queue never grew under load";

  int out = -1;
  int expected = 0;
  while (q.PopNext(out)) {
    EXPECT_EQ(out, expected++);  // strictly increasing times => insertion ids in order
  }
  EXPECT_EQ(expected, 500);
  EXPECT_EQ(q.bucket_count(), initial) << "queue never shrank after draining";
}

TEST(CalendarQueueTest, PeriodicRescheduleDuringDrainKeepsExactTimes) {
  // The simulator's tick pattern: pop the event, schedule the next one period out.
  CalendarQueue<int> q;
  const double period = 7.3;
  double expected = period;  // accumulated like the queue accumulates, not i * period
  q.ScheduleAt(period, 0);
  for (int i = 0; i < 200; ++i) {
    int out = -1;
    ASSERT_TRUE(q.PopNext(out));
    EXPECT_EQ(out, i);
    EXPECT_EQ(q.now(), expected);
    if (i + 1 < 200) {
      q.ScheduleAt(q.now() + period, i + 1);
      expected += period;
    }
  }
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTest, LockstepDifferentialAgainstHeapEngine) {
  // Random interleaving of schedules and pops, mixing second-scale delays,
  // hour-scale far-future tails, and exact-duplicate timestamps. Both queues
  // must pop identical (payload, now) sequences throughout — the determinism
  // contract that lets each simulator use either queue without changing a result.
  Rng rng(20260808);
  CalendarQueue<int> cal;
  HeapEventQueue<int> heap;
  int next_id = 0;
  double last_dup_when = 0.0;
  for (int step = 0; step < 20000; ++step) {
    double r = rng.Uniform();
    if (r < 0.55) {
      double delay;
      double scale = rng.Uniform();
      if (scale < 0.10) {
        delay = rng.Uniform(0.0, 50000.0);  // far future: overflow path
      } else if (scale < 0.25) {
        delay = 0.0;  // immediate: same-bucket ties
      } else {
        delay = rng.Uniform(0.0, 30.0);
      }
      double when = cal.now() + delay;
      if (scale >= 0.25 && scale < 0.35) {
        when = std::max(cal.now(), last_dup_when);  // exact duplicate timestamp
      }
      last_dup_when = when;
      cal.ScheduleAt(when, next_id);
      heap.ScheduleAt(when, next_id);
      ++next_id;
    } else {
      int a = -1;
      int b = -1;
      bool pa = cal.PopNext(a);
      bool pb = heap.PopNext(b);
      ASSERT_EQ(pa, pb) << "queues disagree on emptiness at step " << step;
      if (pa) {
        ASSERT_EQ(a, b) << "queues diverged at step " << step;
        ASSERT_DOUBLE_EQ(cal.now(), heap.now());
      }
    }
  }
  // Drain the remainder in lockstep.
  for (;;) {
    int a = -1;
    int b = -1;
    bool pa = cal.PopNext(a);
    bool pb = heap.PopNext(b);
    ASSERT_EQ(pa, pb);
    if (!pa) {
      break;
    }
    ASSERT_EQ(a, b);
    ASSERT_DOUBLE_EQ(cal.now(), heap.now());
  }
  EXPECT_TRUE(cal.empty());
  EXPECT_TRUE(heap.empty());
}

}  // namespace
}  // namespace jockey
