// The trace-event model and its exporters: every kind round-trips through JSONL,
// seeded runs trace bit-identically, and the counters agree with the per-job
// summary the simulator already reports.

#include "src/obs/jsonl.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/cluster/cluster_simulator.h"
#include "src/core/completion_model.h"
#include "src/obs/metrics.h"
#include "src/obs/observer.h"
#include "src/workload/job_generator.h"

namespace jockey {
namespace {

std::vector<TraceEvent> AllKindsSample() {
  std::vector<TraceEvent> events;
  events.emplace_back(
      60.0, ControlTickEvent{1, 60.0, 0.25, 1234.5, -321.0625, 34.0, 29.75, 30, 0.9375});
  events.emplace_back(60.0, PredictionLookupEvent{1, 0.25, 30.0, 1234.5});
  events.emplace_back(61.0, AllocationChangeEvent{1, 10, 30});
  events.emplace_back(600.0, UtilityChangeEvent{1, 600.0});
  events.emplace_back(
      0.0, TableCacheLookupEvent{0xdeadbeefcafef00dULL, CacheCode::kHit, 40928});
  events.emplace_back(0.0, TableCacheStoreEvent{0x1ULL, CacheCode::kStored, 512});
  events.emplace_back(0.0, TableCacheEvictEvent{0xffffffffffffffffULL, 2048});
  events.emplace_back(0.0, JobSubmitEvent{2, 40});
  events.emplace_back(180.5, JobFinishEvent{2, 180.5});
  events.emplace_back(5.25, TaskDispatchEvent{2, 3, 17, 42, true, false});
  events.emplace_back(9.75, TaskCompleteEvent{2, 3, 17, true, false});
  events.emplace_back(7.0, TaskKilledEvent{2, 3, 18, KillReason::kMachineFailure, true});
  events.emplace_back(8.0, SpeculativeLaunchEvent{2, 4, 20});
  events.emplace_back(100.0, MachineFailureEvent{42, 3});
  events.emplace_back(400.0, MachineRecoverEvent{42});
  events.emplace_back(
      120.0, FaultInjectedEvent{FaultKind::kGrantShortfall, 2, 1, 0.5, 40.0, 20.0});
  events.emplace_back(
      120.0,
      DegradedDecisionEvent{1, DegradeMode::kPessimisticEscalation, 120.0, 90.0, 100, 87.5});
  events.emplace_back(4.5, TaskReadyEvent{2, 3, 17, true});
  events.emplace_back(
      2460.0, SloStateChangeEvent{1, SloState::kOnTrack, SloState::kAtRisk, 2460.0, -11.8125});
  events.emplace_back(120.0, ControlDecisionCachedEvent{1, 120.0, 0.5, 27,
                                                        0xfeedfacecafebeefULL});
  return events;
}

// One sample of every payload kind survives ToJsonLine -> ParseTraceLine -> ToJsonLine
// unchanged. Re-serialization equality is the strongest cheap check: it covers every
// field of every kind without a per-field comparison.
TEST(TraceJsonlTest, EveryKindRoundTrips) {
  std::vector<TraceEvent> events = AllKindsSample();
  ASSERT_EQ(events.size(), std::variant_size_v<TraceEventPayload>);
  for (const TraceEvent& event : events) {
    std::string line = ToJsonLine(event);
    std::optional<TraceEvent> parsed = ParseTraceLine(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(parsed->kind(), event.kind()) << line;
    EXPECT_EQ(ToJsonLine(*parsed), line);
  }
}

// The one-sample-per-payload test above exercises a single enum value per event;
// the parser's name loops must also cover every enumerator (the gray fault kinds
// and straggler escalation were once silently unparseable).
TEST(TraceJsonlTest, EveryFaultKindAndDegradeModeRoundTrips) {
  for (int k = 0; k <= static_cast<int>(FaultKind::kAdversarialSpike); ++k) {
    TraceEvent event(
        1.0, FaultInjectedEvent{static_cast<FaultKind>(k), 0, -1, 2.0, 0.5, 0.0});
    std::string line = ToJsonLine(event);
    std::optional<TraceEvent> parsed = ParseTraceLine(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(ToJsonLine(*parsed), line);
  }
  for (int d = 0; d <= static_cast<int>(DegradeMode::kStragglerEscalation); ++d) {
    TraceEvent event(
        1.0, DegradedDecisionEvent{0, static_cast<DegradeMode>(d), 60.0, 30.0, 10, 5.0});
    std::string line = ToJsonLine(event);
    std::optional<TraceEvent> parsed = ParseTraceLine(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(ToJsonLine(*parsed), line);
  }
}

// The same walk for the remaining enums on the wire.
TEST(TraceJsonlTest, EveryCacheCodeKillReasonAndSloStateRoundTrips) {
  std::vector<TraceEvent> events;
  for (int c = 0; c <= static_cast<int>(CacheCode::kDisabled); ++c) {
    events.emplace_back(0.0, TableCacheLookupEvent{7, static_cast<CacheCode>(c), 64});
    events.emplace_back(0.0, TableCacheStoreEvent{7, static_cast<CacheCode>(c), 64});
  }
  for (int r = 0; r <= static_cast<int>(KillReason::kMachineFailure); ++r) {
    events.emplace_back(3.0, TaskKilledEvent{1, 2, 3, static_cast<KillReason>(r), false});
  }
  for (int from = 0; from <= static_cast<int>(SloState::kMissed); ++from) {
    for (int to = 0; to <= static_cast<int>(SloState::kMissed); ++to) {
      events.emplace_back(9.0, SloStateChangeEvent{4, static_cast<SloState>(from),
                                                   static_cast<SloState>(to), 9.0, -1.5});
    }
  }
  for (const TraceEvent& event : events) {
    std::string line = ToJsonLine(event);
    std::optional<TraceEvent> parsed = ParseTraceLine(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(ToJsonLine(*parsed), line);
  }
}

// The strict reader accepts exactly the keys a kind's table lists. For every kind,
// an appended key the kind does not define is rejected, and so is the line without
// each of its keys in turn; the parse issue names the offending key either way.
TEST(TraceJsonlTest, EveryKindRejectsUndefinedAndMissingKeys) {
  for (const TraceEvent& event : AllKindsSample()) {
    const std::string line = ToJsonLine(event);
    TraceParseIssue issue;
    const std::string extra = line.substr(0, line.size() - 1) + ",\"extra\":1}";
    EXPECT_FALSE(ParseTraceLine(extra, &issue).has_value()) << extra;
    EXPECT_EQ(issue.field, "extra") << extra;
    EXPECT_NE(issue.message.find(EventKindName(event.kind())), std::string::npos)
        << issue.message;

    FlatJsonFields fields;
    ASSERT_TRUE(ParseFlatJsonObject(line, fields)) << line;
    for (size_t drop = 0; drop < fields.fields.size(); ++drop) {
      std::string dropped = "{";
      for (size_t i = 0; i < fields.fields.size(); ++i) {
        const FlatJsonFields::Field& field = fields.fields[i];
        if (i == drop) {
          continue;
        }
        dropped += dropped.size() > 1 ? ",\"" : "\"";
        dropped.append(field.key).append("\":");
        if (field.quoted) {
          dropped.append("\"").append(field.value).append("\"");
        } else {
          dropped.append(field.value);
        }
      }
      dropped += '}';
      EXPECT_FALSE(ParseTraceLine(dropped, &issue).has_value()) << dropped;
      EXPECT_EQ(issue.field, fields.fields[drop].key) << dropped;
    }
  }
}

TEST(TraceJsonlTest, KindCoversAllVariantAlternatives) {
  std::vector<TraceEvent> events = AllKindsSample();
  // The sample must keep up with the payload variant: a new alternative without a
  // sample here would silently skip the round-trip test above.
  EXPECT_EQ(events.size(), std::variant_size_v<TraceEventPayload>);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(static_cast<size_t>(events[i].kind()), i);
    EXPECT_NE(std::string(EventKindName(events[i].kind())), "");
  }
}

// uint64 cache keys exceed double precision; the hex-string encoding must preserve
// all 64 bits.
TEST(TraceJsonlTest, CacheKeysPreserveAll64Bits) {
  TraceEvent event(0.0,
                   TableCacheLookupEvent{0x8000000000000001ULL, CacheCode::kMiss, 0});
  std::optional<TraceEvent> parsed = ParseTraceLine(ToJsonLine(event));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(std::get<TableCacheLookupEvent>(parsed->payload).key, 0x8000000000000001ULL);
}

TEST(TraceJsonlTest, MalformedLinesAreCountedNotFatal) {
  std::istringstream in(
      "{\"t\":1,\"kind\":\"job_submit\",\"job\":0,\"tokens\":5}\n"
      "not json at all\n"
      "\n"
      "{\"t\":2,\"kind\":\"no_such_kind\",\"job\":0}\n"
      "{\"t\":3,\"kind\":\"machine_recover\",\"machine\":7}\n");
  TraceReadResult result = ReadJsonlTrace(in);
  EXPECT_EQ(result.events.size(), 2u);
  EXPECT_EQ(result.malformed_lines, 2);
  // Even in lenient mode the first issue is diagnosed for reporting.
  ASSERT_TRUE(result.first_issue.has_value());
  EXPECT_EQ(result.first_issue->line_number, 2);
  EXPECT_EQ(result.first_issue->message, "malformed JSON object");
}

// Strict mode stops at the first malformed line and pinpoints line and field.
TEST(TraceJsonlTest, StrictModeStopsAtFirstMalformedLine) {
  std::istringstream in(
      "{\"t\":1,\"kind\":\"job_submit\",\"job\":0,\"tokens\":5}\n"
      "\n"
      "{\"t\":2,\"kind\":\"task_ready\",\"job\":0,\"stage\":1,\"requeued\":false}\n"
      "{\"t\":3,\"kind\":\"machine_recover\",\"machine\":7}\n");
  TraceReadResult result = ReadJsonlTrace(in, /*strict=*/true);
  EXPECT_EQ(result.events.size(), 1u);  // line 4 is never reached
  EXPECT_EQ(result.malformed_lines, 1);
  ASSERT_TRUE(result.first_issue.has_value());
  EXPECT_EQ(result.first_issue->line_number, 3);  // blank line still counts
  EXPECT_EQ(result.first_issue->field, "task");   // the first missing payload field
}

TEST(TraceJsonlTest, ParseIssueNamesOffendingField) {
  TraceParseIssue issue;
  EXPECT_FALSE(ParseTraceLine("{\"kind\":\"machine_recover\",\"machine\":7}", &issue));
  EXPECT_EQ(issue.field, "t");

  EXPECT_FALSE(ParseTraceLine("{\"t\":1,\"machine\":7}", &issue));
  EXPECT_EQ(issue.field, "kind");

  EXPECT_FALSE(ParseTraceLine("{\"t\":1,\"kind\":\"warp_drive\"}", &issue));
  EXPECT_EQ(issue.field, "kind");
  EXPECT_EQ(issue.message, "unknown kind 'warp_drive'");

  EXPECT_FALSE(
      ParseTraceLine("{\"t\":1,\"kind\":\"machine_recover\",\"machine\":\"x\"}", &issue));
  EXPECT_EQ(issue.field, "machine");
}

// Lines the strict reader must reject, each naming the offending field: anything it
// accepts must re-serialize to the same canonical bytes, and nothing may reach an
// out-of-range float-to-int conversion.
TEST(TraceJsonlTest, RejectsNonCanonicalAndOutOfRangeFields) {
  struct Case {
    const char* line;
    const char* field;
  };
  const Case cases[] = {
      {R"({"t":1,"kind":"job_submit","job":1e300,"tokens":1})", "job"},
      {R"({"t":1,"kind":"job_submit","job":1.75,"tokens":1})", "job"},
      {R"({"t":1,"kind":"job_submit","job":2147483648,"tokens":1})", "job"},
      {R"({"t":1,"kind":"job_submit","job":1,"tokens":""})", "tokens"},
      {R"({"t":1,"kind":"job_submit","job":+1,"tokens":1})", "job"},
      {R"({"t":0,"kind":"table_cache_evict","key":"0000000000000001","bytes":-5})", "bytes"},
      {R"({"t":0,"kind":"table_cache_evict","key":"0000000000000001","bytes":1.5})", "bytes"},
      {R"({"t":0,"kind":"table_cache_evict","key":"-1","bytes":5})", "key"},
      {R"({"t":0,"kind":"table_cache_evict","key":"1","bytes":5})", "key"},
      {R"({"t":0,"kind":"table_cache_evict","key":"DEADBEEFCAFEF00D","bytes":5})", "key"},
      {R"({"t":0,"kind":"table_cache_evict","key":"0x00000000000001","bytes":5})", "key"},
      {R"({"t":0,"kind":"table_cache_evict","key":"00000000000000001","bytes":5})", "key"},
      {R"({"t":1,"kind":"control_decision_cached","job":1,"elapsed":1,"progress":0,"raw":2,"signature":"g000000000000000"})",
       "signature"},
      {R"({"t":1,"kind":"job_finish","job":1,"completion":nan})", "completion"},
      {R"({"t":1,"kind":"job_finish","job":1,"completion":inf})", "completion"},
      {R"({"t":1,"kind":"job_finish","job":1,"completion":0x10})", "completion"},
      {R"({"t":nan,"kind":"job_finish","job":1,"completion":1})", "t"},
      {R"({"t":1e999,"kind":"job_finish","job":1,"completion":1})", "t"},
      // Ambiguous lines: a repeated key, a quoted number or boolean, a bare string.
      {R"({"t":1,"kind":"job_submit","job":1,"job":2,"tokens":3})", "job"},
      {R"({"t":1,"kind":"job_submit","job":"5","tokens":1})", "job"},
      {R"({"t":"1","kind":"job_submit","job":5,"tokens":1})", "t"},
      {R"({"t":1,"kind":"task_complete","job":1,"stage":0,"task":0,"spare":"true","speculative":false})",
       "spare"},
      {R"({"t":1,"kind":job_submit,"job":1,"tokens":1})", "kind"},
      {R"({"t":0,"kind":"table_cache_evict","key":0000000000000001,"bytes":5})", "key"},
      {R"({"t":1,"kind":"task_killed","job":1,"stage":0,"task":0,"reason":task_failure,"requeued":true})",
       "reason"},
  };
  for (const Case& c : cases) {
    TraceParseIssue issue;
    EXPECT_FALSE(ParseTraceLine(c.line, &issue).has_value()) << c.line;
    EXPECT_EQ(issue.field, c.field) << c.line;
  }
}

// The tokenizer keeps string values as views into the line unless they hold an
// escape; escaped keys and values decode into reused side storage.
TEST(FlatJsonTest, EscapedStringsDecodeAndPlainOnesStayViews) {
  FlatJsonFields fields;
  std::string line = R"({"plain":"abc","esc\"key":"a\\b\nc","num": 12 ,"last":"x\ty"})";
  ASSERT_TRUE(ParseFlatJsonObject(line, fields));
  ASSERT_EQ(fields.fields.size(), 4u);
  const std::string_view* plain = fields.FindString("plain");
  ASSERT_NE(plain, nullptr);
  EXPECT_EQ(*plain, "abc");
  EXPECT_GE(plain->data(), line.data());
  EXPECT_LT(plain->data(), line.data() + line.size());
  const std::string_view* escaped = fields.FindString("esc\"key");
  ASSERT_NE(escaped, nullptr);
  EXPECT_EQ(*escaped, "a\\b\nc");
  EXPECT_EQ(*fields.FindBare("num"), "12");
  EXPECT_EQ(*fields.FindString("last"), "x\ty");
  // Quoting is part of the value: a string is not a number, nor the reverse.
  EXPECT_EQ(fields.FindBare("plain"), nullptr);
  EXPECT_EQ(fields.FindString("num"), nullptr);

  // Reuse replaces the previous contents.
  ASSERT_TRUE(ParseFlatJsonObject(R"({"only":1})", fields));
  ASSERT_EQ(fields.fields.size(), 1u);
  EXPECT_EQ(fields.Find("plain"), nullptr);

  // A repeated key is rejected and named, even when the values agree.
  EXPECT_FALSE(ParseFlatJsonObject(R"({"a":1,"b":2,"a":1})", fields));
  EXPECT_EQ(fields.duplicate_key, "a");

  for (const char* bad : {"", "[]", "{", R"({"a")", R"({"a":})", R"({"a":1)",
                          R"({a:1})", R"({"a":"unterminated})"}) {
    EXPECT_FALSE(ParseFlatJsonObject(bad, fields)) << bad;
  }
}

JobTemplate SmallJob(uint64_t seed = 50) {
  JobShapeSpec spec;
  spec.name = "small";
  spec.num_stages = 6;
  spec.num_barriers = 1;
  spec.num_vertices = 120;
  spec.job_median_seconds = 4.0;
  spec.job_p90_seconds = 12.0;
  spec.fastest_stage_p90 = 2.0;
  spec.slowest_stage_p90 = 30.0;
  spec.seed = seed;
  return GenerateJob(spec);
}

ClusterConfig BusyCluster(uint64_t seed = 1) {
  ClusterConfig config;
  config.num_machines = 10;
  config.slots_per_machine = 4;
  config.seed = seed;
  // Hot enough that spare evictions actually occur, plus machine failures: the trace
  // should exercise the disruption event kinds too.
  config.background.mean_utilization = 0.9;
  config.background.volatility = 0.1;
  config.machine_failure_rate_per_hour = 2.0;
  return config;
}

std::string SerializedClusterTrace(uint64_t seed, MetricsRegistry* metrics) {
  VectorSink sink;
  ClusterSimulator cluster(BusyCluster(seed));
  cluster.set_observer(Observer(&sink, metrics));
  JobSubmission submission;
  submission.guaranteed_tokens = 6;
  submission.seed = 77;
  JobTemplate job = SmallJob();  // the simulator keeps a reference until Run() ends
  int id = cluster.SubmitJob(job, submission);
  cluster.Run();
  EXPECT_TRUE(cluster.result(id).finished);
  std::string out;
  for (const TraceEvent& event : sink.events()) {
    out += ToJsonLine(event);
    out += '\n';
  }
  return out;
}

// The determinism contract of the whole layer: a seeded run emits a byte-identical
// serialized trace every time.
TEST(TraceDeterminismTest, SeededClusterRunTracesBitIdentically) {
  std::string first = SerializedClusterTrace(9, nullptr);
  std::string second = SerializedClusterTrace(9, nullptr);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// The registry's counters must agree with the per-job summary ClusterRunResult
// reports — one source of truth observed through two views.
TEST(TraceDeterminismTest, CountersMatchClusterRunResult) {
  VectorSink sink;
  MetricsRegistry metrics;
  ClusterSimulator cluster(BusyCluster(13));
  cluster.set_observer(Observer(&sink, &metrics));
  JobSubmission submission;
  submission.guaranteed_tokens = 6;
  submission.seed = 31;
  JobTemplate job = SmallJob();  // the simulator keeps a reference until Run() ends
  int id = cluster.SubmitJob(job, submission);
  cluster.Run();
  const ClusterRunResult& r = cluster.result(id);
  ASSERT_TRUE(r.finished);
  EXPECT_EQ(metrics.CounterValue("cluster.evictions"), r.evictions);
  EXPECT_EQ(metrics.CounterValue("cluster.task_failures"), r.task_failures);
  EXPECT_EQ(metrics.CounterValue("cluster.machine_failure_kills"), r.machine_failure_kills);
  EXPECT_EQ(metrics.CounterValue("cluster.speculative_launched"), r.speculative_launched);
  EXPECT_EQ(metrics.CounterValue("cluster.speculative_wins"), r.speculative_wins);
  EXPECT_EQ(metrics.CounterValue("cluster.jobs_finished"), 1);
  // Every dispatched attempt either completes, is killed, or is a duplicate
  // cancelled when the other copy won (at most one per speculative launch).
  int64_t settled = metrics.CounterValue("cluster.completions") + r.evictions +
                    r.task_failures + r.machine_failure_kills;
  EXPECT_GE(metrics.CounterValue("cluster.dispatches"), settled);
  EXPECT_LE(metrics.CounterValue("cluster.dispatches"), settled + r.speculative_launched);
}

CompletionModelConfig SmallModelConfig() {
  CompletionModelConfig config;
  config.runs_per_allocation = 3;
  config.allocation_grid = {5, 20, 60};
  config.num_progress_buckets = 20;
  return config;
}

std::string SerializedBuildTrace(int threads, const std::string& cache_dir) {
  JobTemplate tmpl = SmallJob(61);
  Rng gen(7);
  RunTrace trace;
  for (int s = 0; s < tmpl.graph.num_stages(); ++s) {
    for (int i = 0; i < tmpl.graph.stage(s).num_tasks; ++i) {
      double d = tmpl.runtime[static_cast<size_t>(s)].SampleSeconds(gen);
      trace.tasks.push_back({{s, i}, 0.0, 1.0, 1.0 + d, 0, 0.0});
    }
  }
  trace.finish_time = 1.0;
  JobProfile profile = JobProfile::FromTrace(tmpl.graph, trace);
  auto indicator = MakeIndicator(IndicatorKind::kTotalWorkWithQ, tmpl.graph, profile);
  VectorSink sink;
  CompletionModelConfig config = SmallModelConfig();
  config.threads = threads;
  config.cache_dir = cache_dir;
  config.observer = Observer(&sink, nullptr);
  BuildCompletionTable(tmpl.graph, profile, *indicator, config);
  std::string out;
  for (const TraceEvent& event : sink.events()) {
    out += ToJsonLine(event);
    out += '\n';
  }
  return out;
}

// The offline build fans across worker threads, but its trace (cache traffic, at
// simulated time 0) must not depend on the thread count — workers never emit.
TEST(TraceDeterminismTest, ModelBuildTraceIndependentOfThreadCount) {
  std::string dir_a = testing::TempDir() + "obs_build_trace_a";
  std::string dir_b = testing::TempDir() + "obs_build_trace_b";
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
  std::string serial = SerializedBuildTrace(1, dir_a);
  std::string parallel = SerializedBuildTrace(8, dir_b);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

TEST(ObserverTest, DetachedObserverIsInert) {
  Observer detached;
  EXPECT_FALSE(detached.enabled());
  // None of these may crash or require a sink/registry.
  detached.Emit(1.0, MachineRecoverEvent{3});
  detached.Count("nothing");
  detached.Set("nothing", 1.0);
  detached.Observe("nothing", 1.0);
}

TEST(ObserverTest, HalvesAttachIndependently) {
  VectorSink sink;
  MetricsRegistry metrics;
  Observer trace_only(&sink, nullptr);
  EXPECT_TRUE(trace_only.tracing());
  EXPECT_FALSE(trace_only.metering());
  trace_only.Emit(0.0, MachineRecoverEvent{1});
  trace_only.Count("ignored");
  EXPECT_EQ(sink.events().size(), 1u);
  Observer metrics_only(nullptr, &metrics);
  metrics_only.Emit(0.0, MachineRecoverEvent{2});
  metrics_only.Count("counted");
  EXPECT_EQ(sink.events().size(), 1u);
  EXPECT_EQ(metrics.CounterValue("counted"), 1);
}

TEST(ChromeTraceTest, ExportsCounterAndInstantRecords) {
  std::ostringstream os;
  WriteChromeTrace(os, AllKindsSample());
  std::string text = os.str();
  EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);  // allocation counter track
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);  // scheduler instants
  EXPECT_EQ(text.find("NaN"), std::string::npos);
}

}  // namespace
}  // namespace jockey
