#include "src/dag/dependency_tracker.h"

#include <cassert>
#include <utility>

namespace jockey {

DependencyTracker::DependencyTracker(const JobGraph& graph) : graph_(&graph) {
  int s_count = graph.num_stages();
  task_base_.resize(static_cast<size_t>(s_count));
  stage_total_.resize(static_cast<size_t>(s_count));
  for (int s = 0; s < s_count; ++s) {
    task_base_[static_cast<size_t>(s)] = total_tasks_;
    stage_total_[static_cast<size_t>(s)] = graph.stage(s).num_tasks;
    total_tasks_ += graph.stage(s).num_tasks;
  }
  stage_of_.resize(static_cast<size_t>(total_tasks_));
  for (int s = 0; s < s_count; ++s) {
    for (int i = 0; i < graph.stage(s).num_tasks; ++i) {
      stage_of_[static_cast<size_t>(task_base_[static_cast<size_t>(s)] + i)] = s;
    }
  }
  barrier_consumers_.resize(static_cast<size_t>(s_count));
  initial_wait_count_.assign(static_cast<size_t>(total_tasks_), 0);

  // (producer, consumer) one-to-one wake-ups in discovery order; the stable
  // bucketing below keeps that order within each producer's consumer list.
  std::vector<std::pair<int, int>> wakeups;
  for (int c = 0; c < s_count; ++c) {
    const StageSpec& consumer = graph.stage(c);
    for (const StageEdge& edge : consumer.inputs) {
      if (edge.pattern == CommPattern::kAllToAll) {
        barrier_consumers_[static_cast<size_t>(edge.from)].push_back(c);
        for (int i = 0; i < consumer.num_tasks; ++i) {
          ++initial_wait_count_[static_cast<size_t>(FlatId(c, i))];
        }
      } else {
        for (int i = 0; i < consumer.num_tasks; ++i) {
          int consumer_task = FlatId(c, i);
          for (int p : graph.InputTasksFor(c, i, edge)) {
            wakeups.emplace_back(FlatId(edge.from, p), consumer_task);
            ++initial_wait_count_[static_cast<size_t>(consumer_task)];
          }
        }
      }
    }
  }
  one_to_one_offsets_.assign(static_cast<size_t>(total_tasks_) + 1, 0);
  for (const auto& [producer, consumer] : wakeups) {
    ++one_to_one_offsets_[static_cast<size_t>(producer) + 1];
  }
  for (size_t t = 0; t < static_cast<size_t>(total_tasks_); ++t) {
    one_to_one_offsets_[t + 1] += one_to_one_offsets_[t];
  }
  one_to_one_consumers_.resize(wakeups.size());
  std::vector<int> cursor(one_to_one_offsets_.begin(), one_to_one_offsets_.end() - 1);
  for (const auto& [producer, consumer] : wakeups) {
    one_to_one_consumers_[static_cast<size_t>(cursor[static_cast<size_t>(producer)]++)] =
        consumer;
  }
  for (int t = 0; t < total_tasks_; ++t) {
    if (initial_wait_count_[static_cast<size_t>(t)] == 0) {
      initial_ready_.push_back(t);
    }
  }
}

DependencyTracker::State::State(const DependencyTracker& tracker)
    : tracker_(&tracker),
      wait_count_(tracker.initial_wait_count_),
      stage_done_(tracker.stage_total_.size(), 0),
      newly_ready_(tracker.initial_ready_) {}

void DependencyTracker::State::Unblock(int flat_task) {
  if (--wait_count_[static_cast<size_t>(flat_task)] == 0) {
    newly_ready_.push_back(flat_task);
  }
}

void DependencyTracker::State::MarkDone(int flat_task) {
  int s = tracker_->StageOf(flat_task);
  ++done_total_;
  int done = ++stage_done_[static_cast<size_t>(s)];
  assert(done <= tracker_->StageTotal(s) && "task completed more than once");
  if (done == tracker_->StageTotal(s)) {
    for (int c : tracker_->barrier_consumers_[static_cast<size_t>(s)]) {
      int base = tracker_->task_base_[static_cast<size_t>(c)];
      for (int i = 0; i < tracker_->StageTotal(c); ++i) {
        Unblock(base + i);
      }
    }
  }
  const int* consumers = tracker_->one_to_one_consumers_.data();
  const size_t t = static_cast<size_t>(flat_task);
  for (int k = tracker_->one_to_one_offsets_[t]; k < tracker_->one_to_one_offsets_[t + 1];
       ++k) {
    Unblock(consumers[k]);
  }
}

std::vector<int> DependencyTracker::State::TakeNewlyReady() {
  std::vector<int> out;
  out.swap(newly_ready_);
  return out;
}

void DependencyTracker::State::TakeNewlyReadyInto(std::vector<int>& out) {
  out.insert(out.end(), newly_ready_.begin(), newly_ready_.end());
  newly_ready_.clear();
}

double DependencyTracker::State::FracComplete(int stage) const {
  return static_cast<double>(stage_done_[static_cast<size_t>(stage)]) /
         static_cast<double>(tracker_->StageTotal(stage));
}

void DependencyTracker::State::FracCompleteInto(std::vector<double>& out) const {
  out.resize(stage_done_.size());
  for (size_t s = 0; s < stage_done_.size(); ++s) {
    out[s] = static_cast<double>(stage_done_[s]) /
             static_cast<double>(tracker_->stage_total_[s]);
  }
}

}  // namespace jockey
