// Asynchronous JSONL trace export: JsonlSink's format, off the hot path.
//
// JsonlSink formats and writes inside OnEvent, so every scheduler event pays for
// number formatting and stream I/O on the simulation thread. AsyncJsonlSink moves
// that work to a background writer thread with a double-buffered protocol:
//
//   simulation thread          writer thread
//   ----------------          -------------
//   append event copy to      wait for a published batch
//   the active buffer;        format the whole batch with
//   every batch_events,       AppendJsonLine into one reused
//   publish the buffer        text buffer, write it with one
//   (one mutex hop) and       os.write, and recycle the
//   continue on a recycled    drained buffer
//   buffer
//
// Output is byte-identical to JsonlSink over the same event sequence: events are
// buffered in emission order, batches queue in order, and one writer formats them
// in order with the same AppendJsonLine. The destructor publishes the tail, joins the
// writer, and flushes the stream — dropping the sink never drops trace lines.
//
// Threading contract (the documented exception to observer.h's "sinks are not
// thread-safe" rule): OnEvent/Flush must be called from one thread — the
// simulation thread — while the internal writer drains concurrently. The sink is
// safe against its own writer, not against concurrent producers.

#ifndef SRC_OBS_ASYNC_JSONL_H_
#define SRC_OBS_ASYNC_JSONL_H_

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "src/obs/observer.h"
#include "src/obs/trace_event.h"

namespace jockey {

class AsyncJsonlSink final : public ObserverSink {
 public:
  // The stream must outlive the sink and is written only by the background thread
  // (plus the final flush); nothing else may write it while the sink lives.
  // batch_events trades producer-side memory and trace-visibility latency for
  // publish cost: each publish is a mutex hop plus a writer wakeup whose
  // formatting run evicts the producer's cache when cores are scarce. The
  // default (~360 KB per buffer) keeps publishes rare enough to hold the sink
  // under the <=2% hot-loop budget even on a single core; tests shrink it to
  // force frequent cross-thread handoffs.
  explicit AsyncJsonlSink(std::ostream& os, size_t batch_events = 4096);
  ~AsyncJsonlSink() override;

  AsyncJsonlSink(const AsyncJsonlSink&) = delete;
  AsyncJsonlSink& operator=(const AsyncJsonlSink&) = delete;

  void OnEvent(const TraceEvent& event) override;

  // Publishes the active buffer, blocks until the writer has drained everything,
  // then flushes the stream. After Flush() returns, every event emitted so far is
  // in the ostream.
  void Flush();

 private:
  // Hands the active buffer to the writer and swaps in a recycled one.
  void Publish();
  void WriterLoop();

  std::ostream* os_;
  const size_t batch_events_;
  std::vector<TraceEvent> active_;  // producer-only; no lock

  std::mutex mu_;
  std::condition_variable work_cv_;  // wakes the writer: batch queued or stop
  std::condition_variable idle_cv_;  // wakes Flush(): everything drained
  std::deque<std::vector<TraceEvent>> queued_;
  std::vector<std::vector<TraceEvent>> spare_;  // drained buffers for reuse
  bool writing_ = false;
  bool stop_ = false;

  std::thread writer_;
};

}  // namespace jockey

#endif  // SRC_OBS_ASYNC_JSONL_H_
