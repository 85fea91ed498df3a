// The time-series recorder: ring drop accounting, sample-period throttling, the
// SLO health state machine (hysteresis, terminal miss, finish reconciliation),
// slo_state_change emission through the observer, the JSONL interchange
// round-trip, and the timeline filters.

#include "src/obs/timeseries/timeseries.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/observer.h"

namespace jockey {
namespace {

TimeSeriesConfig SmallConfig(int capacity = 4096) {
  TimeSeriesConfig config;
  config.sample_period_seconds = 60.0;
  config.capacity = capacity;
  return config;
}

TEST(TimeSeriesConfigTest, ValidationNamesTheFirstBadField) {
  TimeSeriesConfig config;
  config.sample_period_seconds = 0.0;
  EXPECT_THROW(ValidateTimeSeriesConfig(config), std::invalid_argument);
  config = TimeSeriesConfig();
  config.capacity = 0;
  EXPECT_THROW(ValidateTimeSeriesConfig(config), std::invalid_argument);
  config = TimeSeriesConfig();
  config.recover_slack_seconds = -1.0;  // below at_risk_slack_seconds = 0
  EXPECT_THROW(ValidateTimeSeriesConfig(config), std::invalid_argument);
  EXPECT_NO_THROW(ValidateTimeSeriesConfig(TimeSeriesConfig()));
}

TEST(TimeSeriesRecorderTest, RingKeepsNewestSamplesAndCountsDrops) {
  TimeSeriesRecorder recorder(SmallConfig(/*capacity=*/4));
  recorder.BeginRun(/*deadline_seconds=*/-1.0);
  for (int i = 0; i < 10; ++i) {
    double t = 60.0 * i;
    recorder.OnControlSample(/*job=*/0, t, t, 0.1 * i, 100.0, 10 + i);
    recorder.OnClusterSample(t, 0.5, 600, 300, 50 + i);
  }
  TimeSeries series = recorder.Snapshot();
  ASSERT_EQ(series.runs.size(), 1u);
  const RunTimeline& run = series.runs[0];
  ASSERT_EQ(run.cluster.size(), 4u);
  EXPECT_EQ(run.dropped_cluster_samples, 6);
  // Chronological: the newest four, oldest first.
  EXPECT_DOUBLE_EQ(run.cluster.front().t, 360.0);
  EXPECT_DOUBLE_EQ(run.cluster.back().t, 540.0);
  EXPECT_EQ(run.cluster.back().spare_tokens, 59);
  ASSERT_EQ(run.jobs.size(), 1u);
  const JobTimeline& job = run.jobs[0];
  ASSERT_EQ(job.samples.size(), 4u);
  EXPECT_EQ(job.dropped_samples, 6);
  EXPECT_DOUBLE_EQ(job.samples.front().t, 360.0);
  EXPECT_EQ(job.samples.back().allocated_tokens, 19);
}

TEST(TimeSeriesRecorderTest, SamplesThrottleToThePeriodButHealthRunsEveryTick) {
  TimeSeriesRecorder recorder(SmallConfig());
  recorder.BeginRun(/*deadline_seconds=*/1000.0);
  // t=0: healthy. t=30: inside the period (no sample) but slack goes negative —
  // the health machine must still see it. t=60: next sample lands.
  recorder.OnControlSample(0, 0.0, 0.0, 0.0, 500.0, 10);
  recorder.OnControlSample(0, 30.0, 30.0, 0.1, 1500.0, 10);
  recorder.OnControlSample(0, 60.0, 60.0, 0.2, 400.0, 10);
  TimeSeries series = recorder.Snapshot();
  const JobTimeline& job = series.runs[0].jobs[0];
  ASSERT_EQ(job.samples.size(), 2u);
  EXPECT_DOUBLE_EQ(job.samples[0].t, 0.0);
  EXPECT_DOUBLE_EQ(job.samples[1].t, 60.0);
  ASSERT_EQ(job.transitions.size(), 2u);
  EXPECT_DOUBLE_EQ(job.transitions[0].t, 30.0);
  EXPECT_EQ(job.transitions[0].to, SloState::kAtRisk);
  // Recovered at t=60: slack 1000 - (60 + 400) = 540 clears the 180 s band.
  EXPECT_EQ(job.transitions[1].to, SloState::kOnTrack);
}

TEST(TimeSeriesRecorderTest, HysteresisHoldsAtRiskInsideTheRecoverBand) {
  TimeSeriesRecorder recorder(SmallConfig());
  recorder.BeginRun(/*deadline_seconds=*/1000.0);
  recorder.OnControlSample(0, 0.0, 0.0, 0.0, 1200.0, 10);  // slack -200: at_risk
  // slack 100: above the at_risk threshold (0) but below recover (180) — held.
  recorder.OnControlSample(0, 60.0, 60.0, 0.1, 840.0, 10);
  // slack 180: exactly the recover bound — recovers.
  recorder.OnControlSample(0, 120.0, 120.0, 0.2, 700.0, 10);
  TimeSeries series = recorder.Snapshot();
  const JobTimeline& job = series.runs[0].jobs[0];
  ASSERT_EQ(job.transitions.size(), 2u);
  EXPECT_EQ(job.transitions[0].to, SloState::kAtRisk);
  EXPECT_DOUBLE_EQ(job.transitions[1].t, 120.0);
  EXPECT_EQ(job.transitions[1].to, SloState::kOnTrack);
}

TEST(TimeSeriesRecorderTest, MissedIsTerminalOnceElapsedPassesTheDeadline) {
  TimeSeriesRecorder recorder(SmallConfig());
  recorder.BeginRun(/*deadline_seconds=*/100.0);
  recorder.OnControlSample(0, 150.0, 150.0, 0.5, 10.0, 10);
  // A later optimistic prediction cannot un-miss a job already past its deadline.
  recorder.OnControlSample(0, 210.0, 210.0, 0.9, 0.0, 10);
  recorder.OnJobFinish(0, 260.0, 260.0);
  TimeSeries series = recorder.Snapshot();
  const JobTimeline& job = series.runs[0].jobs[0];
  ASSERT_EQ(job.transitions.size(), 1u);
  EXPECT_EQ(job.transitions[0].to, SloState::kMissed);
  EXPECT_EQ(job.final_state, SloState::kMissed);
}

TEST(TimeSeriesRecorderTest, FinishReconcilesHealthWithTheDeadlineVerdict) {
  // At risk mid-run but finishes in time: final health recovers to on_track.
  TimeSeriesRecorder recorder(SmallConfig());
  recorder.BeginRun(/*deadline_seconds=*/1000.0);
  recorder.OnControlSample(0, 60.0, 60.0, 0.1, 1500.0, 10);
  recorder.OnJobFinish(0, 900.0, 900.0);
  TimeSeries early_series = recorder.Snapshot();
  const JobTimeline& early = early_series.runs[0].jobs[0];
  EXPECT_TRUE(early.finished);
  EXPECT_EQ(early.final_state, SloState::kOnTrack);
  ASSERT_EQ(early.transitions.size(), 2u);
  EXPECT_EQ(early.transitions.back().to, SloState::kOnTrack);

  // Never flagged at risk but finishes late: final health is missed.
  TimeSeriesRecorder late_recorder(SmallConfig());
  late_recorder.BeginRun(/*deadline_seconds=*/1000.0);
  late_recorder.OnControlSample(0, 60.0, 60.0, 0.1, 500.0, 10);
  late_recorder.OnJobFinish(0, 1200.0, 1200.0);
  TimeSeries late_series = late_recorder.Snapshot();
  const JobTimeline& late = late_series.runs[0].jobs[0];
  EXPECT_EQ(late.final_state, SloState::kMissed);
}

TEST(TimeSeriesRecorderTest, NegativePredictionMeansSlackFromElapsedAlone) {
  TimeSeriesRecorder recorder(SmallConfig());
  recorder.BeginRun(/*deadline_seconds=*/1000.0);
  recorder.OnControlSample(0, 60.0, 60.0, 0.1, -1.0, 10);
  TimeSeries series = recorder.Snapshot();
  const JobSample& sample = series.runs[0].jobs[0].samples[0];
  EXPECT_DOUBLE_EQ(sample.slack_seconds, 940.0);  // not 941: sentinel not absorbed
  EXPECT_DOUBLE_EQ(sample.predicted_remaining_seconds, -1.0);  // raw value retained
}

TEST(TimeSeriesRecorderTest, NoDeadlineRunKeepsTheHealthMachineInert) {
  TimeSeriesRecorder recorder(SmallConfig());
  recorder.BeginRun(/*deadline_seconds=*/-1.0);
  recorder.OnControlSample(0, 60.0, 60.0, 0.1, 1e9, 10);
  recorder.OnJobFinish(0, 5000.0, 5000.0);
  TimeSeries series = recorder.Snapshot();
  const JobTimeline& job = series.runs[0].jobs[0];
  EXPECT_TRUE(job.transitions.empty());
  EXPECT_EQ(job.final_state, SloState::kOnTrack);
  EXPECT_DOUBLE_EQ(job.samples[0].slack_seconds, 0.0);
}

TEST(TimeSeriesRecorderTest, TransitionsEmitSloStateChangeEvents) {
  VectorSink sink;
  TimeSeriesRecorder recorder(SmallConfig());
  recorder.set_observer(Observer(&sink, nullptr));
  recorder.BeginRun(/*deadline_seconds=*/1000.0);
  recorder.OnControlSample(7, 60.0, 60.0, 0.1, 1500.0, 10);
  ASSERT_EQ(sink.events().size(), 1u);
  const auto* change = std::get_if<SloStateChangeEvent>(&sink.events()[0].payload);
  ASSERT_NE(change, nullptr);
  EXPECT_EQ(change->job, 7);
  EXPECT_EQ(change->from, SloState::kOnTrack);
  EXPECT_EQ(change->to, SloState::kAtRisk);
  EXPECT_DOUBLE_EQ(sink.events()[0].time_seconds, 60.0);
  EXPECT_DOUBLE_EQ(change->slack_seconds, 1000.0 - (60.0 + 1500.0));
}

TEST(TimeSeriesRecorderTest, RunsSegmentByBeginRun) {
  TimeSeriesRecorder recorder(SmallConfig());
  recorder.BeginRun(500.0);
  recorder.OnControlSample(0, 60.0, 60.0, 0.5, 100.0, 5);
  recorder.BeginRun(900.0);
  recorder.OnControlSample(0, 30.0, 30.0, 0.1, 100.0, 8);
  TimeSeries series = recorder.Snapshot();
  ASSERT_EQ(series.runs.size(), 2u);
  EXPECT_EQ(series.runs[0].run, 0);
  EXPECT_EQ(series.runs[1].run, 1);
  EXPECT_DOUBLE_EQ(series.runs[0].jobs[0].deadline_seconds, 500.0);
  EXPECT_DOUBLE_EQ(series.runs[1].jobs[0].deadline_seconds, 900.0);
  EXPECT_EQ(series.runs[1].jobs[0].samples[0].allocated_tokens, 8);
}

// A populated snapshot must survive Write -> Read -> Write byte-identically —
// the property that makes `jockey_cli timeline` a faithful view of the capture.
TEST(TimeSeriesJsonlTest, RoundTripIsByteIdentical) {
  TimeSeriesRecorder recorder(SmallConfig(/*capacity=*/3));
  recorder.BeginRun(1000.0);
  for (int i = 0; i < 5; ++i) {
    double t = 60.0 * i;
    recorder.OnControlSample(0, t, t, 0.2 * i, i == 2 ? 1500.0 : 200.0, 10 + i);
    recorder.OnClusterSample(t, 0.9 + 0.01 * i, 600, 300, 40 - i);
  }
  recorder.OnJobFinish(0, 290.0, 290.0);
  recorder.BeginRun(-1.0);
  recorder.OnControlSample(1, 0.0, 0.0, 0.0, -1.0, 4);
  std::ostringstream first;
  WriteTimeSeriesJsonl(first, recorder.Snapshot());
  std::istringstream in(first.str());
  TimeSeriesReadResult read = ReadTimeSeriesJsonl(in);
  ASSERT_TRUE(read.series.has_value()) << read.line << ": " << read.message;
  std::ostringstream second;
  WriteTimeSeriesJsonl(second, *read.series);
  EXPECT_EQ(second.str(), first.str());
}

TEST(TimeSeriesJsonlTest, ReaderReportsLineAndField) {
  std::istringstream in(
      "{\"t\":0,\"kind\":\"ts_run\",\"run\":0,\"period\":60,\"deadline\":-1,"
      "\"cluster_dropped\":0}\n"
      "{\"t\":60,\"kind\":\"ts_cluster\",\"run\":0,\"utilization\":\"x\",\"up\":1,"
      "\"background\":1,\"spare\":1}\n");
  TimeSeriesReadResult read = ReadTimeSeriesJsonl(in);
  EXPECT_FALSE(read.series.has_value());
  EXPECT_EQ(read.line, 2);
  EXPECT_NE(read.message.find("utilization"), std::string::npos) << read.message;

  // Samples must follow their run header.
  std::istringstream orphan(
      "{\"t\":60,\"kind\":\"ts_cluster\",\"run\":0,\"utilization\":1,\"up\":1,"
      "\"background\":1,\"spare\":1}\n");
  read = ReadTimeSeriesJsonl(orphan);
  EXPECT_FALSE(read.series.has_value());
  EXPECT_EQ(read.line, 1);
}

// Integer fields must be in-range integer tokens and numbers finite decimals: each
// hostile sample line is rejected at line 2 with the field named.
TEST(TimeSeriesJsonlTest, ReaderRejectsNonCanonicalNumbers) {
  const std::string header =
      "{\"t\":0,\"kind\":\"ts_run\",\"run\":0,\"period\":60,\"deadline\":-1,"
      "\"cluster_dropped\":0}\n";
  struct Case {
    const char* line;
    const char* field;
  };
  const Case cases[] = {
      {"{\"t\":60,\"kind\":\"ts_cluster\",\"run\":0,\"utilization\":1,\"up\":1e300,"
       "\"background\":1,\"spare\":1}",
       "up"},
      {"{\"t\":60,\"kind\":\"ts_cluster\",\"run\":0,\"utilization\":1,\"up\":1.75,"
       "\"background\":1,\"spare\":1}",
       "up"},
      {"{\"t\":60,\"kind\":\"ts_cluster\",\"run\":0,\"utilization\":nan,\"up\":1,"
       "\"background\":1,\"spare\":1}",
       "utilization"},
      {"{\"t\":60,\"kind\":\"ts_job_end\",\"run\":0,\"job\":0,\"deadline\":1,"
       "\"finished\":true,\"completion\":1,\"final\":\"on_track\",\"dropped\":-1e300}",
       "dropped"},
      {"{\"t\":\"\",\"kind\":\"ts_cluster\",\"run\":0,\"utilization\":1,\"up\":1,"
       "\"background\":1,\"spare\":1}",
       "'t'"},
      // Ambiguous lines: a repeated key, a quoted number or boolean, a bare string.
      {"{\"t\":60,\"kind\":\"ts_cluster\",\"run\":0,\"utilization\":1,\"up\":1,"
       "\"background\":1,\"spare\":1,\"up\":2}",
       "'up'"},
      {"{\"t\":60,\"kind\":\"ts_cluster\",\"run\":0,\"utilization\":1,\"up\":1,"
       "\"background\":1,\"spare\":\"1\"}",
       "'spare'"},
      {"{\"t\":60,\"kind\":\"ts_job_end\",\"run\":0,\"job\":0,\"deadline\":1,"
       "\"finished\":\"true\",\"completion\":1,\"final\":\"on_track\",\"dropped\":0}",
       "'finished'"},
      {"{\"t\":60,\"kind\":\"ts_job_end\",\"run\":0,\"job\":0,\"deadline\":1,"
       "\"finished\":true,\"completion\":1,\"final\":on_track,\"dropped\":0}",
       "'final'"},
      {"{\"t\":60,\"kind\":ts_cluster,\"run\":0,\"utilization\":1,\"up\":1,"
       "\"background\":1,\"spare\":1}",
       "kind"},
      // A key the kind does not define.
      {"{\"t\":0,\"kind\":\"ts_run\",\"run\":1,\"period\":60,\"deadline\":-1,"
       "\"cluster_dropped\":0,\"extra\":1}",
       "'extra'"},
      // Derived fields that disagree with what the writer derives them from: a run
      // header's "t" (always 0) and deadline (its first job's, -1 with no jobs), and a
      // job end's "t" (the completion time, or 0 when unfinished).
      {"{\"t\":5,\"kind\":\"ts_run\",\"run\":1,\"period\":60,\"deadline\":-1,"
       "\"cluster_dropped\":0}",
       "'t'"},
      {"{\"t\":0,\"kind\":\"ts_run\",\"run\":1,\"period\":60,\"deadline\":123,"
       "\"cluster_dropped\":0}",
       "'deadline'"},
      {"{\"t\":60,\"kind\":\"ts_job_end\",\"run\":0,\"job\":0,\"deadline\":-1,"
       "\"finished\":true,\"completion\":1,\"final\":\"on_track\",\"dropped\":0}",
       "'t'"},
      {"{\"t\":60,\"kind\":\"ts_job_end\",\"run\":0,\"job\":0,\"deadline\":-1,"
       "\"finished\":false,\"completion\":0,\"final\":\"on_track\",\"dropped\":0}",
       "'t'"},
  };
  for (const Case& c : cases) {
    std::istringstream in(header + c.line + "\n");
    TimeSeriesReadResult read = ReadTimeSeriesJsonl(in);
    EXPECT_FALSE(read.series.has_value()) << c.line;
    EXPECT_EQ(read.line, 2) << c.line;
    EXPECT_NE(read.message.find(c.field), std::string::npos) << read.message;
  }
}

TimeSeries TwoRunFixture() {
  TimeSeriesRecorder recorder(SmallConfig());
  recorder.BeginRun(1000.0);
  recorder.OnControlSample(0, 60.0, 60.0, 0.1, 200.0, 10);   // stays on_track
  recorder.OnControlSample(1, 60.0, 60.0, 0.1, 1500.0, 10);  // goes at_risk
  recorder.OnClusterSample(60.0, 0.9, 600, 300, 40);
  recorder.BeginRun(500.0);
  recorder.OnControlSample(2, 30.0, 30.0, 0.5, 100.0, 5);
  return recorder.Snapshot();
}

TEST(TimelineFilterTest, SelectsRunsJobsAndSeries) {
  TimeSeries series = TwoRunFixture();

  TimelineFilter by_run;
  by_run.run = 1;
  TimeSeries run_view = FilterTimeSeries(series, by_run);
  ASSERT_EQ(run_view.runs.size(), 1u);
  EXPECT_EQ(run_view.runs[0].run, 1);

  TimelineFilter by_job;
  by_job.job = 1;
  TimeSeries job_view = FilterTimeSeries(series, by_job);
  ASSERT_EQ(job_view.runs[0].jobs.size(), 1u);
  EXPECT_EQ(job_view.runs[0].jobs[0].job, 1);
  EXPECT_TRUE(job_view.runs[1].jobs.empty());

  TimelineFilter cluster_only;
  cluster_only.cluster_only = true;
  TimeSeries cluster_view = FilterTimeSeries(series, cluster_only);
  EXPECT_TRUE(cluster_view.runs[0].jobs.empty());
  EXPECT_EQ(cluster_view.runs[0].cluster.size(), 1u);

  TimelineFilter jobs_only;
  jobs_only.jobs_only = true;
  TimeSeries jobs_view = FilterTimeSeries(series, jobs_only);
  EXPECT_TRUE(jobs_view.runs[0].cluster.empty());
  EXPECT_EQ(jobs_view.runs[0].jobs.size(), 2u);

  TimelineFilter at_risk;
  at_risk.at_risk_only = true;
  TimeSeries risk_view = FilterTimeSeries(series, at_risk);
  ASSERT_EQ(risk_view.runs[0].jobs.size(), 1u);
  EXPECT_EQ(risk_view.runs[0].jobs[0].job, 1);  // job 0 never left on_track
}

TEST(TimelineExportTest, ViewsAreDeterministicAndCoverRealizedRemaining) {
  TimeSeries series = TwoRunFixture();
  series.runs[0].jobs[0].finished = true;
  series.runs[0].jobs[0].completion_seconds = 500.0;
  std::ostringstream json1, json2, csv1, csv2, text1, text2;
  WriteTimelineJson(json1, series);
  WriteTimelineJson(json2, series);
  WriteTimelineCsv(csv1, series);
  WriteTimelineCsv(csv2, series);
  PrintTimeline(text1, series);
  PrintTimeline(text2, series);
  EXPECT_EQ(json1.str(), json2.str());
  EXPECT_EQ(csv1.str(), csv2.str());
  EXPECT_EQ(text1.str(), text2.str());
  // Finished job: realized remaining = completion - elapsed (500 - 60).
  EXPECT_NE(json1.str().find("\"realized_remaining\": 440"), std::string::npos) << json1.str();
  // Unfinished job: null, and no realized_remaining CSV rows.
  EXPECT_NE(json1.str().find("\"realized_remaining\": null"), std::string::npos);
  EXPECT_NE(csv1.str().find("job.realized_remaining,0,"), std::string::npos);
  EXPECT_EQ(csv1.str().find("job.realized_remaining,1,"), std::string::npos);
  EXPECT_NE(csv1.str().find("run,series,job,t,value\n"), std::string::npos);
}

}  // namespace
}  // namespace jockey
