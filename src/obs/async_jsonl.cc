#include "src/obs/async_jsonl.h"

#include <ostream>
#include <string>
#include <utility>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "src/obs/jsonl.h"

namespace jockey {

namespace {

// Trace formatting must never steal cycles from the simulation: when cores are
// scarce the writer runs only in slack the producer leaves (SCHED_IDLE), instead
// of round-robining through the hot loop and evicting its cache every timeslice.
// Liveness is unaffected — Flush() and the destructor block the producer, which
// is exactly the slack the writer needs to drain. Best effort: unsupported
// platforms keep the default policy.
void DropToIdlePriority() {
#ifdef __linux__
  sched_param param{};
  pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
#endif
}

}  // namespace

AsyncJsonlSink::AsyncJsonlSink(std::ostream& os, size_t batch_events)
    : os_(&os), batch_events_(batch_events > 0 ? batch_events : 1) {
  active_.reserve(batch_events_);
  writer_ = std::thread([this]() { WriterLoop(); });
}

AsyncJsonlSink::~AsyncJsonlSink() {
  Publish();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_one();
  writer_.join();  // the writer drains every queued batch before exiting
  os_->flush();
}

void AsyncJsonlSink::OnEvent(const TraceEvent& event) {
  active_.push_back(event);
  if (active_.size() >= batch_events_) {
    Publish();
  }
}

void AsyncJsonlSink::Publish() {
  if (active_.empty()) {
    return;
  }
  std::vector<TraceEvent> next;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!spare_.empty()) {
      next = std::move(spare_.back());
      spare_.pop_back();
    }
    queued_.push_back(std::move(active_));
  }
  work_cv_.notify_one();
  next.clear();
  next.reserve(batch_events_);
  active_ = std::move(next);
}

void AsyncJsonlSink::Flush() {
  Publish();
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this]() { return queued_.empty() && !writing_; });
  }
  os_->flush();
}

void AsyncJsonlSink::WriterLoop() {
  DropToIdlePriority();
  std::string text;  // one batch of lines; its capacity is reused across batches
  for (;;) {
    std::vector<TraceEvent> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this]() { return stop_ || !queued_.empty(); });
      if (queued_.empty()) {
        idle_cv_.notify_all();
        return;  // stop requested and everything drained
      }
      batch = std::move(queued_.front());
      queued_.pop_front();
      writing_ = true;
    }
    text.clear();
    for (const TraceEvent& event : batch) {
      AppendJsonLine(text, event);
      text += '\n';
    }
    os_->write(text.data(), static_cast<std::streamsize>(text.size()));
    batch.clear();
    {
      std::lock_guard<std::mutex> lock(mu_);
      writing_ = false;
      spare_.push_back(std::move(batch));
      if (queued_.empty()) {
        idle_cv_.notify_all();
      }
    }
  }
}

}  // namespace jockey
