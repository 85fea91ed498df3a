#include "src/obs/timeseries/timeseries.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "src/obs/json_format.h"
#include "src/obs/jsonl.h"
#include "src/obs/prof/profiler.h"

namespace jockey {
namespace {

// Throttle comparisons tolerate FP accumulation on the sample clock.
constexpr double kEps = 1e-9;

// Unrolls a ring (newest `ring.size()` of `pushed` samples) chronologically.
template <typename T>
std::vector<T> Unroll(const std::vector<T>& ring, int64_t pushed, int capacity) {
  if (pushed <= static_cast<int64_t>(ring.size())) {
    return ring;
  }
  std::vector<T> out;
  out.reserve(ring.size());
  size_t start = static_cast<size_t>(pushed % capacity);
  out.insert(out.end(), ring.begin() + start, ring.end());
  out.insert(out.end(), ring.begin(), ring.begin() + start);
  return out;
}

template <typename T>
void RingPush(std::vector<T>& ring, int64_t& pushed, int capacity, const T& value) {
  if (static_cast<int64_t>(ring.size()) < capacity) {
    ring.push_back(value);
  } else {
    ring[static_cast<size_t>(pushed % capacity)] = value;
  }
  ++pushed;
}

int64_t Dropped(int64_t pushed, int capacity) {
  return pushed > capacity ? pushed - capacity : 0;
}

}  // namespace

void ValidateTimeSeriesConfig(const TimeSeriesConfig& config) {
  if (!(config.sample_period_seconds > 0.0)) {
    throw std::invalid_argument("TimeSeriesConfig.sample_period_seconds must be > 0");
  }
  if (config.capacity < 1) {
    throw std::invalid_argument("TimeSeriesConfig.capacity must be >= 1");
  }
  if (config.recover_slack_seconds < config.at_risk_slack_seconds) {
    throw std::invalid_argument(
        "TimeSeriesConfig.recover_slack_seconds must be >= at_risk_slack_seconds");
  }
}

TimeSeriesRecorder::TimeSeriesRecorder(TimeSeriesConfig config) : config_(config) {
  ValidateTimeSeriesConfig(config_);
}

void TimeSeriesRecorder::BeginRun(double deadline_seconds) {
  RunTrack run;
  run.deadline_seconds = deadline_seconds;
  runs_.push_back(std::move(run));
}

TimeSeriesRecorder::JobTrack& TimeSeriesRecorder::Track(int job) {
  if (runs_.empty()) {
    BeginRun(-1.0);  // sampling without BeginRun: an anonymous no-SLO run
  }
  RunTrack& run = runs_.back();
  auto [it, inserted] = run.jobs.try_emplace(job);
  if (inserted) {
    it->second.meta.job = job;
    it->second.meta.deadline_seconds = run.deadline_seconds;
  }
  return it->second;
}

void TimeSeriesRecorder::Transition(int job, JobTrack& track, SloState to, double now,
                                    double elapsed, double slack) {
  SloTransition transition;
  transition.t = now;
  transition.from = track.state;
  transition.to = to;
  transition.elapsed_seconds = elapsed;
  transition.slack_seconds = slack;
  track.meta.transitions.push_back(transition);
  observer_.Emit(now, SloStateChangeEvent{job, track.state, to, elapsed, slack});
  track.state = to;
}

void TimeSeriesRecorder::OnControlSample(int job, double now, double elapsed_seconds,
                                         double progress, double predicted_remaining_seconds,
                                         int granted_tokens) {
  JobTrack& track = Track(job);
  double deadline = track.meta.deadline_seconds;
  // predicted < 0 = "no prediction" (baselines without a completion model):
  // slack then tracks elapsed time alone rather than absorbing the sentinel.
  double slack = deadline >= 0.0
                     ? deadline - (elapsed_seconds + std::max(0.0, predicted_remaining_seconds))
                     : 0.0;
  // Health first: evaluated every tick, regardless of the ring throttle.
  if (deadline >= 0.0 && !track.meta.finished && track.state != SloState::kMissed) {
    if (elapsed_seconds > deadline) {
      Transition(job, track, SloState::kMissed, now, elapsed_seconds, slack);
    } else if (track.state == SloState::kOnTrack && slack < config_.at_risk_slack_seconds) {
      Transition(job, track, SloState::kAtRisk, now, elapsed_seconds, slack);
    } else if (track.state == SloState::kAtRisk && slack >= config_.recover_slack_seconds) {
      Transition(job, track, SloState::kOnTrack, now, elapsed_seconds, slack);
    }
  }
  if (now + kEps < track.next_sample) {
    return;
  }
  track.next_sample = now + config_.sample_period_seconds;
  JobSample sample;
  sample.t = now;
  sample.elapsed_seconds = elapsed_seconds;
  sample.progress = progress;
  sample.allocated_tokens = granted_tokens;
  sample.predicted_remaining_seconds = predicted_remaining_seconds;
  sample.slack_seconds = slack;
  RingPush(track.ring, track.pushed, config_.capacity, sample);
}

void TimeSeriesRecorder::OnClusterSample(double now, double utilization, int up_slots,
                                         int background_slots, int spare_tokens) {
  if (runs_.empty()) {
    BeginRun(-1.0);
  }
  RunTrack& run = runs_.back();
  if (now + kEps < run.next_cluster_sample) {
    return;
  }
  run.next_cluster_sample = now + config_.sample_period_seconds;
  ClusterSample sample;
  sample.t = now;
  sample.utilization = utilization;
  sample.up_slots = up_slots;
  sample.background_slots = background_slots;
  sample.spare_tokens = spare_tokens;
  RingPush(run.cluster_ring, run.cluster_pushed, config_.capacity, sample);
}

void TimeSeriesRecorder::OnJobFinish(int job, double now, double completion_seconds) {
  JobTrack& track = Track(job);
  track.meta.finished = true;
  track.meta.completion_seconds = completion_seconds;
  double deadline = track.meta.deadline_seconds;
  if (deadline < 0.0) {
    return;
  }
  double slack = deadline - completion_seconds;
  if (completion_seconds > deadline) {
    if (track.state != SloState::kMissed) {
      Transition(job, track, SloState::kMissed, now, completion_seconds, slack);
    }
  } else if (track.state == SloState::kAtRisk) {
    // Finished inside the deadline: the risk never realized, so the final state
    // recovers — which is what makes final health ≡ the postmortem verdict.
    Transition(job, track, SloState::kOnTrack, now, completion_seconds, slack);
  }
}

TimeSeries TimeSeriesRecorder::Snapshot() const {
  TimeSeries series;
  series.sample_period_seconds = config_.sample_period_seconds;
  series.runs.reserve(runs_.size());
  for (size_t i = 0; i < runs_.size(); ++i) {
    const RunTrack& track = runs_[i];
    RunTimeline run;
    run.run = static_cast<int>(i);
    run.cluster = Unroll(track.cluster_ring, track.cluster_pushed, config_.capacity);
    run.dropped_cluster_samples = Dropped(track.cluster_pushed, config_.capacity);
    for (const auto& [job, job_track] : track.jobs) {
      JobTimeline timeline = job_track.meta;
      timeline.final_state = job_track.state;
      timeline.samples = Unroll(job_track.ring, job_track.pushed, config_.capacity);
      timeline.dropped_samples = Dropped(job_track.pushed, config_.capacity);
      run.jobs.push_back(std::move(timeline));
    }
    series.runs.push_back(std::move(run));
  }
  return series;
}

// --- JSONL interchange ---

namespace {

// Every line opens {"t":<time>,"kind":"<kind>", then the run it belongs to and, on
// the per-job kinds, the job; the record's own fields follow.
struct LineKey {
  int run = 0;
  int job = 0;
};
constexpr std::tuple kRunKey{Field("run", &LineKey::run)};
constexpr std::tuple kJobKey{Field("run", &LineKey::run), Field("job", &LineKey::job)};

// The run header carries the sampling period and the ring-drop counters, so a
// reader can tell a short series from a truncated one. Its "t" is always 0, and
// `deadline` is the run's first job's (-1 with no jobs): both are derived, so the
// reader checks them against what it reads and keeps neither.
struct RunHeader {
  int run = 0;
  double period = 0.0;
  double deadline = -1.0;
  int64_t cluster_dropped = 0;
};
constexpr std::tuple kRunFields{
    Field("run", &RunHeader::run), Field("period", &RunHeader::period),
    Field("deadline", &RunHeader::deadline),
    Field("cluster_dropped", &RunHeader::cluster_dropped)};

constexpr std::tuple kClusterFields{
    Field("utilization", &ClusterSample::utilization), Field("up", &ClusterSample::up_slots),
    Field("background", &ClusterSample::background_slots),
    Field("spare", &ClusterSample::spare_tokens)};

constexpr std::tuple kJobFields{
    Field("elapsed", &JobSample::elapsed_seconds), Field("progress", &JobSample::progress),
    Field("allocated", &JobSample::allocated_tokens),
    Field("predicted", &JobSample::predicted_remaining_seconds),
    Field("slack", &JobSample::slack_seconds)};

constexpr std::tuple kSloFields{
    Field("from", &SloTransition::from), Field("to", &SloTransition::to),
    Field("elapsed", &SloTransition::elapsed_seconds),
    Field("slack", &SloTransition::slack_seconds)};

// A job's last line; its "t" is the completion time, or 0 when unfinished.
constexpr std::tuple kJobEndFields{
    Field("deadline", &JobTimeline::deadline_seconds), Field("finished", &JobTimeline::finished),
    Field("completion", &JobTimeline::completion_seconds),
    Field("final", &JobTimeline::final_state), Field("dropped", &JobTimeline::dropped_samples)};

// Opens a line with its "t" and "kind"; the caller appends the tables, then EndLine.
void OpenLine(std::string& line, double t, std::string_view kind) {
  line.clear();
  line += "{\"t\":";
  AppendJsonNumber(line, t);
  line += ",\"kind\":\"";
  line += kind;
  line += '"';
}

void EndLine(std::ostream& os, std::string& line) {
  line += "}\n";
  os.write(line.data(), static_cast<std::streamsize>(line.size()));
}

JobTimeline& JobIn(RunTimeline& run, int job) {
  for (JobTimeline& existing : run.jobs) {
    if (existing.job == job) {
      return existing;
    }
  }
  run.jobs.emplace_back();
  run.jobs.back().job = job;
  return run.jobs.back();
}

}  // namespace

void WriteTimeSeriesJsonl(std::ostream& os, const TimeSeries& series) {
  std::string line;
  for (const RunTimeline& run : series.runs) {
    const RunHeader header{run.run, series.sample_period_seconds,
                           run.jobs.empty() ? -1.0 : run.jobs.front().deadline_seconds,
                           run.dropped_cluster_samples};
    OpenLine(line, 0.0, "ts_run");
    AppendFields<kRunFields>(line, header);
    EndLine(os, line);
    const LineKey run_key{run.run};
    for (const ClusterSample& s : run.cluster) {
      OpenLine(line, s.t, "ts_cluster");
      AppendFields<kRunKey>(line, run_key);
      AppendFields<kClusterFields>(line, s);
      EndLine(os, line);
    }
    for (const JobTimeline& job : run.jobs) {
      const LineKey key{run.run, job.job};
      for (const JobSample& s : job.samples) {
        OpenLine(line, s.t, "ts_job");
        AppendFields<kJobKey>(line, key);
        AppendFields<kJobFields>(line, s);
        EndLine(os, line);
      }
      for (const SloTransition& tr : job.transitions) {
        OpenLine(line, tr.t, "ts_slo");
        AppendFields<kJobKey>(line, key);
        AppendFields<kSloFields>(line, tr);
        EndLine(os, line);
      }
      OpenLine(line, job.finished ? job.completion_seconds : 0.0, "ts_job_end");
      AppendFields<kJobKey>(line, key);
      AppendFields<kJobEndFields>(line, job);
      EndLine(os, line);
    }
  }
}

TimeSeriesReadResult ReadTimeSeriesJsonl(std::istream& is) {
  TimeSeries series;
  std::string line;
  FlatJsonFields fields;
  int line_number = 0;
  auto fail = [&](std::string message) {
    TimeSeriesReadResult failed;
    failed.line = line_number;
    failed.message = std::move(message);
    return failed;
  };
  auto malformed = [](std::string_view key) {
    return "missing or malformed field '" + std::string(key) + "'";
  };
  // Per run: the header's line and deadline, checked once the run's jobs are known.
  std::vector<std::pair<int, double>> header_deadlines;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    if (!ParseFlatJsonObject(line, fields)) {
      return fail(fields.ParseError());
    }
    const std::string_view* kind = fields.FindString("kind");
    if (kind == nullptr) {
      return fail("missing or unquoted kind");
    }
    double t = 0.0;
    const std::string_view* t_text = fields.FindBare("t");
    if (t_text == nullptr || !ParseJsonNumber(*t_text, t)) {
      return fail(malformed("t"));
    }
    bool ok = true;
    if (*kind == "ts_run") {
      RunHeader header;
      ok = ReadFields<kRunFields>(fields, header);
      if (ok && header.run != static_cast<int>(series.runs.size())) {
        return fail("out-of-order run index");
      }
      if (ok && t != 0.0) {
        return fail("field 't' of a ts_run line must be 0");
      }
      header_deadlines.emplace_back(line_number, header.deadline);
      if (series.runs.empty()) {
        series.sample_period_seconds = header.period;
      }
      RunTimeline& run = series.runs.emplace_back();
      run.run = header.run;
      run.dropped_cluster_samples = header.cluster_dropped;
    } else if (*kind != "ts_cluster" && *kind != "ts_job" && *kind != "ts_slo" &&
               *kind != "ts_job_end") {
      return fail("unknown kind '" + std::string(*kind) + "'");
    } else {
      LineKey key;
      if (!(*kind == "ts_cluster" ? ReadFields<kRunKey>(fields, key)
                                  : ReadFields<kJobKey>(fields, key))) {
        return fail(malformed(fields.rejected_key));
      }
      if (key.run < 0 || key.run >= static_cast<int>(series.runs.size())) {
        return fail("sample references a run with no ts_run header");
      }
      RunTimeline& run = series.runs[static_cast<size_t>(key.run)];
      if (*kind == "ts_cluster") {
        ClusterSample s;
        s.t = t;
        ok = ReadFields<kClusterFields>(fields, s);
        run.cluster.push_back(s);
      } else if (*kind == "ts_job") {
        JobSample s;
        s.t = t;
        ok = ReadFields<kJobFields>(fields, s);
        JobIn(run, key.job).samples.push_back(s);
      } else if (*kind == "ts_slo") {
        SloTransition tr;
        tr.t = t;
        ok = ReadFields<kSloFields>(fields, tr);
        JobIn(run, key.job).transitions.push_back(tr);
      } else {
        JobTimeline& job = JobIn(run, key.job);
        ok = ReadFields<kJobEndFields>(fields, job);
        if (ok && t != (job.finished ? job.completion_seconds : 0.0)) {
          return fail(
              "field 't' of a ts_job_end line must be its completion time, or 0 when "
              "unfinished");
        }
      }
    }
    if (!ok) {
      return fail(malformed(fields.rejected_key));
    }
    if (const FlatJsonFields::Field* extra = fields.FirstUnread()) {
      return fail("key '" + std::string(extra->key) + "' not defined for kind '" +
                  std::string(*kind) + "'");
    }
  }
  for (size_t r = 0; r < series.runs.size(); ++r) {
    const std::vector<JobTimeline>& jobs = series.runs[r].jobs;
    if (header_deadlines[r].second != (jobs.empty() ? -1.0 : jobs.front().deadline_seconds)) {
      line_number = header_deadlines[r].first;
      return fail(
          "field 'deadline' of a ts_run line must be its run's first job's deadline, or -1 "
          "with no jobs");
    }
  }
  TimeSeriesReadResult result;
  result.series = std::move(series);
  return result;
}

// --- Views ---

TimeSeries FilterTimeSeries(const TimeSeries& series, const TimelineFilter& filter) {
  TimeSeries out;
  out.sample_period_seconds = series.sample_period_seconds;
  for (const RunTimeline& run : series.runs) {
    if (filter.run >= 0 && run.run != filter.run) {
      continue;
    }
    RunTimeline kept;
    kept.run = run.run;
    if (!filter.jobs_only) {
      kept.cluster = run.cluster;
      kept.dropped_cluster_samples = run.dropped_cluster_samples;
    }
    if (!filter.cluster_only) {
      for (const JobTimeline& job : run.jobs) {
        if (filter.job >= 0 && job.job != filter.job) {
          continue;
        }
        if (filter.at_risk_only && job.transitions.empty() &&
            job.final_state == SloState::kOnTrack) {
          continue;
        }
        kept.jobs.push_back(job);
      }
    }
    out.runs.push_back(std::move(kept));
  }
  return out;
}

void WriteTimelineJson(std::ostream& os, const TimeSeries& series) {
  prof::Scope scope("timeline");
  os << "{\n  \"sample_period_seconds\": " << JsonNumber(series.sample_period_seconds)
     << ",\n  \"runs\": [";
  bool first_run = true;
  for (const RunTimeline& run : series.runs) {
    os << (first_run ? "\n" : ",\n");
    first_run = false;
    os << "    {\"run\": " << run.run << ",\n     \"cluster\": {\"dropped\": "
       << run.dropped_cluster_samples << ", \"samples\": [";
    bool first = true;
    for (const ClusterSample& s : run.cluster) {
      os << (first ? "" : ", ");
      first = false;
      os << "{\"t\": " << JsonNumber(s.t) << ", \"utilization\": " << JsonNumber(s.utilization)
         << ", \"up\": " << s.up_slots << ", \"background\": " << s.background_slots
         << ", \"spare\": " << s.spare_tokens << "}";
    }
    os << "]},\n     \"jobs\": [";
    bool first_job = true;
    for (const JobTimeline& job : run.jobs) {
      os << (first_job ? "\n" : ",\n");
      first_job = false;
      os << "      {\"job\": " << job.job << ", \"deadline\": "
         << JsonNumber(job.deadline_seconds) << ", \"finished\": "
         << (job.finished ? "true" : "false") << ", \"completion\": "
         << JsonNumber(job.completion_seconds) << ", \"final_state\": \""
         << SloStateName(job.final_state) << "\", \"dropped\": " << job.dropped_samples
         << ",\n       \"samples\": [";
      first = true;
      for (const JobSample& s : job.samples) {
        os << (first ? "" : ", ");
        first = false;
        os << "{\"t\": " << JsonNumber(s.t) << ", \"elapsed\": "
           << JsonNumber(s.elapsed_seconds) << ", \"progress\": " << JsonNumber(s.progress)
           << ", \"allocated\": " << s.allocated_tokens << ", \"predicted_remaining\": "
           << JsonNumber(s.predicted_remaining_seconds) << ", \"realized_remaining\": ";
        if (job.finished) {
          os << JsonNumber(job.completion_seconds - s.elapsed_seconds);
        } else {
          os << "null";
        }
        os << ", \"slack\": " << JsonNumber(s.slack_seconds) << "}";
      }
      os << "],\n       \"health\": [";
      first = true;
      for (const SloTransition& tr : job.transitions) {
        os << (first ? "" : ", ");
        first = false;
        os << "{\"t\": " << JsonNumber(tr.t) << ", \"from\": \"" << SloStateName(tr.from)
           << "\", \"to\": \"" << SloStateName(tr.to) << "\", \"elapsed\": "
           << JsonNumber(tr.elapsed_seconds) << ", \"slack\": "
           << JsonNumber(tr.slack_seconds) << "}";
      }
      os << "]}";
    }
    os << (first_job ? "]}" : "\n     ]}");
  }
  os << (first_run ? "]\n" : "\n  ]\n") << "}\n";
}

void WriteTimelineCsv(std::ostream& os, const TimeSeries& series) {
  prof::Scope scope("timeline");
  os << "run,series,job,t,value\n";
  for (const RunTimeline& run : series.runs) {
    for (const ClusterSample& s : run.cluster) {
      os << run.run << ",cluster.utilization,," << JsonNumber(s.t) << ","
         << JsonNumber(s.utilization) << "\n";
      os << run.run << ",cluster.up_slots,," << JsonNumber(s.t) << "," << s.up_slots << "\n";
      os << run.run << ",cluster.background_slots,," << JsonNumber(s.t) << ","
         << s.background_slots << "\n";
      os << run.run << ",cluster.spare_tokens,," << JsonNumber(s.t) << "," << s.spare_tokens
         << "\n";
    }
    for (const JobTimeline& job : run.jobs) {
      for (const JobSample& s : job.samples) {
        os << run.run << ",job.allocated_tokens," << job.job << "," << JsonNumber(s.t) << ","
           << s.allocated_tokens << "\n";
        os << run.run << ",job.progress," << job.job << "," << JsonNumber(s.t) << ","
           << JsonNumber(s.progress) << "\n";
        os << run.run << ",job.predicted_remaining," << job.job << "," << JsonNumber(s.t)
           << "," << JsonNumber(s.predicted_remaining_seconds) << "\n";
        if (job.finished) {
          os << run.run << ",job.realized_remaining," << job.job << "," << JsonNumber(s.t)
             << "," << JsonNumber(job.completion_seconds - s.elapsed_seconds) << "\n";
        }
        os << run.run << ",job.slack," << job.job << "," << JsonNumber(s.t) << ","
           << JsonNumber(s.slack_seconds) << "\n";
      }
      for (const SloTransition& tr : job.transitions) {
        os << run.run << ",job.slo_state," << job.job << "," << JsonNumber(tr.t) << ","
           << static_cast<int>(tr.to) << "\n";
      }
    }
  }
}

void PrintTimeline(std::ostream& os, const TimeSeries& series) {
  prof::Scope scope("timeline");
  os << "timeline: " << series.runs.size() << " run(s), sample period "
     << JsonNumber(series.sample_period_seconds) << "s\n";
  for (const RunTimeline& run : series.runs) {
    os << "run " << run.run << ": " << run.cluster.size() << " cluster sample(s)";
    if (run.dropped_cluster_samples > 0) {
      os << " (+" << run.dropped_cluster_samples << " dropped)";
    }
    os << "\n";
    if (!run.cluster.empty()) {
      double peak = 0.0;
      int min_spare = run.cluster.front().spare_tokens;
      for (const ClusterSample& s : run.cluster) {
        peak = std::max(peak, s.utilization);
        min_spare = std::min(min_spare, s.spare_tokens);
      }
      os << "  cluster: peak utilization " << JsonNumber(peak) << ", min spare pool "
         << min_spare << "\n";
    }
    for (const JobTimeline& job : run.jobs) {
      os << "  job " << job.job << ": " << job.samples.size() << " sample(s)";
      if (job.dropped_samples > 0) {
        os << " (+" << job.dropped_samples << " dropped)";
      }
      if (job.deadline_seconds >= 0.0) {
        os << ", deadline " << JsonNumber(job.deadline_seconds) << "s";
      }
      if (job.finished) {
        os << ", finished at " << JsonNumber(job.completion_seconds) << "s";
      }
      os << ", health " << SloStateName(job.final_state) << "\n";
      for (const SloTransition& tr : job.transitions) {
        os << "    " << JsonNumber(tr.t) << "s: " << SloStateName(tr.from) << " -> "
           << SloStateName(tr.to) << " (slack " << JsonNumber(tr.slack_seconds) << "s)\n";
      }
    }
  }
}

}  // namespace jockey
