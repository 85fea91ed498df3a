// Scenario parser contract: strict rejection with first-bad-line diagnostics, and
// canonical-JSON round-trips that are byte identities.

#include "src/scenario/spec.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/sim/table_cache.h"  // HashString: 64-bit FNV-1a

#ifndef JOCKEY_SCENARIO_DIR
#error "build must define JOCKEY_SCENARIO_DIR"
#endif

namespace jockey {
namespace {

ScenarioSpec MustParse(const std::string& text) {
  ScenarioParseResult result = ParseScenarioText(text);
  EXPECT_TRUE(result.spec.has_value())
      << (result.issue.has_value() ? FormatScenarioIssue("<test>", *result.issue) : "no issue");
  return *result.spec;
}

ScenarioParseIssue MustFail(const std::string& text) {
  ScenarioParseResult result = ParseScenarioText(text);
  EXPECT_FALSE(result.spec.has_value());
  EXPECT_TRUE(result.issue.has_value());
  return result.issue.value_or(ScenarioParseIssue{});
}

constexpr char kFullScenario[] = R"(# exercise every block
name: everything
seed: 9
repeats: 2
policy: jockey
jitter_input: false
hardened: true
use_spare_tokens: false
input_scale: 1.5
overload:
  start: 100
  duration: 1800
  utilization: 1.2
deadline_change:
  at: 600
  factor: 0.75
control:
  period_seconds: 45
  max_tokens: 80
  slack: 1.3
workload:
  - job: F
    deadline: tight
  - job: B
    deadline: {minutes: 45}
    policy: max_allocation
    repeats: 3
    seed: 100
    faults:
      class: report_dropout
  - random:
      name: synth
      seed: 4
      min_stages: 5
      max_stages: 8
    deadline: long
phases:
  - name: calm
    duration: 3600
    utilization: 0.6
    arrivals:
      period: 900
  - name: storm
    duration: 1800
    utilization: 1.25
    arrivals:
      poisson: 300
)";

TEST(ScenarioSpecTest, ParsesEveryBlock) {
  ScenarioSpec spec = MustParse(kFullScenario);
  EXPECT_EQ(spec.name, "everything");
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.repeats, 2);
  EXPECT_FALSE(spec.jitter_input);
  EXPECT_TRUE(spec.hardened);
  EXPECT_FALSE(spec.use_spare_tokens);
  EXPECT_DOUBLE_EQ(spec.input_scale.value(), 1.5);
  ASSERT_TRUE(spec.overload.has_value());
  EXPECT_DOUBLE_EQ(spec.overload->duration_seconds, 1800.0);
  ASSERT_TRUE(spec.deadline_change.has_value());
  EXPECT_DOUBLE_EQ(spec.deadline_change->factor.value(), 0.75);
  ASSERT_TRUE(spec.control.has_value());
  EXPECT_EQ(spec.control->max_tokens.value(), 80);
  ASSERT_EQ(spec.workload.size(), 3u);
  EXPECT_EQ(spec.workload[0].job.letter, "F");
  EXPECT_EQ(spec.workload[1].deadline.kind, DeadlineSpec::Kind::kMinutes);
  EXPECT_DOUBLE_EQ(spec.workload[1].deadline.minutes, 45.0);
  EXPECT_EQ(spec.workload[1].policy.value(), PolicyKind::kMaxAllocation);
  ASSERT_TRUE(spec.workload[1].faults.has_value());
  EXPECT_EQ(spec.workload[1].faults->kind, FaultSpec::Kind::kClass);
  EXPECT_EQ(spec.workload[1].faults->class_name, "report_dropout");
  ASSERT_TRUE(spec.workload[2].job.random.has_value());
  EXPECT_EQ(spec.workload[2].job.random->name, "synth");
  EXPECT_EQ(spec.workload[2].job.random->params.min_stages, 5);
  ASSERT_EQ(spec.phases.size(), 2u);
  EXPECT_EQ(spec.phases[1].arrivals.kind, ArrivalSpec::Kind::kPoisson);
  EXPECT_DOUBLE_EQ(spec.phases[1].arrivals.value_seconds, 300.0);
}

TEST(ScenarioSpecTest, AcceptsJsonInput) {
  ScenarioSpec spec = MustParse(
      R"({"name": "json_form", "seed": 4,
          "workload": [{"job": "A", "deadline": "tight"}]})");
  EXPECT_EQ(spec.name, "json_form");
  EXPECT_EQ(spec.seed, 4u);
  ASSERT_EQ(spec.workload.size(), 1u);
  EXPECT_EQ(spec.workload[0].job.letter, "A");
}

TEST(ScenarioSpecTest, UnknownTopLevelKeyIsRejectedWithItsLine) {
  ScenarioParseIssue issue = MustFail(
      "name: x\n"
      "bogus: 1\n"
      "workload:\n"
      "  - job: A\n"
      "    deadline: tight\n");
  EXPECT_EQ(issue.line, 2);
  EXPECT_EQ(issue.field, "bogus");
  EXPECT_NE(issue.message.find("unknown key"), std::string::npos);
}

TEST(ScenarioSpecTest, RemovedEngineKeyIsRejectedWithItsLine) {
  // Each simulator has one fixed event queue; the old engine switch is an
  // unknown key now, not a silently ignored one.
  ScenarioParseIssue issue = MustFail(
      "name: x\n"
      "seed: 3\n"
      "engine: calendar\n"
      "workload:\n"
      "  - job: A\n"
      "    deadline: tight\n");
  EXPECT_EQ(issue.line, 3);
  EXPECT_EQ(issue.field, "engine");
  EXPECT_NE(issue.message.find("unknown key"), std::string::npos);
}

TEST(ScenarioSpecTest, UnknownNestedKeyNamesTheFieldPath) {
  ScenarioParseIssue issue = MustFail(
      "name: x\n"
      "workload:\n"
      "  - job: A\n"
      "    deadline: tight\n"
      "    turbo: true\n");
  EXPECT_EQ(issue.line, 5);
  EXPECT_EQ(issue.field, "workload[0].turbo");
}

TEST(ScenarioSpecTest, BadValueReportsLineAndField) {
  ScenarioParseIssue issue = MustFail(
      "name: x\n"
      "workload:\n"
      "  - job: A\n"
      "    deadline: soonish\n");
  EXPECT_EQ(issue.line, 4);
  EXPECT_EQ(issue.field, "workload[0].deadline");
  EXPECT_NE(issue.message.find("soonish"), std::string::npos);
}

TEST(ScenarioSpecTest, TypeErrorsRejectQuotedNumbers) {
  ScenarioParseIssue issue = MustFail(
      "name: x\n"
      "seed: \"7\"\n"
      "workload:\n"
      "  - job: A\n"
      "    deadline: tight\n");
  EXPECT_EQ(issue.line, 2);
  EXPECT_EQ(issue.field, "seed");
}

TEST(ScenarioSpecTest, UnknownJobLetterRejected) {
  ScenarioParseIssue issue = MustFail(
      "name: x\n"
      "workload:\n"
      "  - job: Q\n"
      "    deadline: tight\n");
  EXPECT_EQ(issue.line, 3);
  EXPECT_EQ(issue.field, "workload[0].job");
}

TEST(ScenarioSpecTest, UnknownFaultClassRejected) {
  ScenarioParseIssue issue = MustFail(
      "name: x\n"
      "faults:\n"
      "  class: meteor_strike\n"
      "workload:\n"
      "  - job: A\n"
      "    deadline: tight\n");
  EXPECT_EQ(issue.line, 3);
  EXPECT_EQ(issue.field, "faults.class");
}

TEST(ScenarioSpecTest, FixedPolicyRequiresFixedTokens) {
  ScenarioParseIssue issue = MustFail(
      "name: x\n"
      "policy: fixed\n"
      "workload:\n"
      "  - job: A\n"
      "    deadline: tight\n");
  EXPECT_NE(issue.message.find("fixed_tokens"), std::string::npos);
}

TEST(ScenarioSpecTest, DeadlineChangeWantsExactlyOneOfFactorMinutes) {
  ScenarioParseIssue issue = MustFail(
      "name: x\n"
      "deadline_change:\n"
      "  at: 100\n"
      "  factor: 0.5\n"
      "  minutes: 30\n"
      "workload:\n"
      "  - job: A\n"
      "    deadline: tight\n");
  EXPECT_EQ(issue.field, "deadline_change");
}

TEST(ScenarioSpecTest, DuplicateKeysRejected) {
  ScenarioParseIssue issue = MustFail(
      "name: x\n"
      "seed: 1\n"
      "seed: 2\n"
      "workload:\n"
      "  - job: A\n"
      "    deadline: tight\n");
  EXPECT_EQ(issue.line, 3);
}

TEST(ScenarioSpecTest, TabsInIndentationRejected) {
  ScenarioParseIssue issue = MustFail("name: x\nworkload:\n\t- job: A\n");
  EXPECT_EQ(issue.line, 3);
}

TEST(ScenarioSpecTest, FormatScenarioIssueShape) {
  ScenarioParseIssue issue{12, "workload[0].deadline", "bad deadline"};
  EXPECT_EQ(FormatScenarioIssue("scenarios/x.yaml", issue),
            "scenarios/x.yaml:12: bad deadline at field workload[0].deadline");
}

TEST(ScenarioSpecTest, CanonicalJsonRoundTripsByteIdentically) {
  ScenarioSpec spec = MustParse(kFullScenario);
  std::string json = WriteScenarioJson(spec);
  ScenarioParseResult reparsed = ParseScenarioText(json);
  ASSERT_TRUE(reparsed.spec.has_value())
      << (reparsed.issue.has_value() ? FormatScenarioIssue("<json>", *reparsed.issue) : "");
  EXPECT_EQ(WriteScenarioJson(*reparsed.spec), json);
}

constexpr char kInlineWindowsScenario[] =
    "name: x\n"
    "faults:\n"
    "  seed: 13\n"
    "  windows:\n"
    "    - kind: machine_burst\n"
    "      start: 100\n"
    "      end: 400\n"
    "      first_machine: 3\n"
    "      machines: 5\n"
    "workload:\n"
    "  - job: A\n"
    "    deadline: tight\n";

TEST(ScenarioSpecTest, InlineFaultWindowsRoundTrip) {
  ScenarioSpec spec = MustParse(kInlineWindowsScenario);
  ASSERT_TRUE(spec.faults.has_value());
  EXPECT_EQ(spec.faults->kind, FaultSpec::Kind::kInline);
  EXPECT_EQ(spec.faults->inline_plan.seed(), 13u);
  ASSERT_EQ(spec.faults->inline_plan.windows().size(), 1u);
  EXPECT_EQ(spec.faults->inline_plan.windows()[0].kind, FaultKind::kMachineBurst);

  std::string json = WriteScenarioJson(spec);
  ScenarioParseResult reparsed = ParseScenarioText(json);
  ASSERT_TRUE(reparsed.spec.has_value());
  EXPECT_EQ(WriteScenarioJson(*reparsed.spec), json);
}

TEST(ScenarioSpecTest, DegradedModeKnobsParseAndRoundTrip) {
  ScenarioSpec spec = MustParse(
      "name: x\n"
      "hardened: true\n"
      "control:\n"
      "  stale_hold_seconds: 120\n"
      "  blind_escalation_rate: 0.5\n"
      "  blackout_gap_factor: 1.75\n"
      "  grant_ratio_ewma: 0.75\n"
      "workload:\n"
      "  - job: A\n"
      "    deadline: tight\n");
  ASSERT_TRUE(spec.control.has_value());
  EXPECT_DOUBLE_EQ(spec.control->stale_hold_seconds.value(), 120.0);
  EXPECT_DOUBLE_EQ(spec.control->blind_escalation_rate.value(), 0.5);
  EXPECT_DOUBLE_EQ(spec.control->blackout_gap_factor.value(), 1.75);
  EXPECT_DOUBLE_EQ(spec.control->grant_ratio_ewma.value(), 0.75);

  std::string json = WriteScenarioJson(spec);
  ScenarioParseResult reparsed = ParseScenarioText(json);
  ASSERT_TRUE(reparsed.spec.has_value());
  EXPECT_EQ(WriteScenarioJson(*reparsed.spec), json);
}

TEST(ScenarioSpecTest, DegradedModeKnobRangesRejected) {
  // A gap factor of 1 would flag every tick as a blackout.
  ScenarioParseIssue issue = MustFail(
      "name: x\n"
      "control:\n"
      "  blackout_gap_factor: 1.0\n"
      "workload:\n"
      "  - job: A\n"
      "    deadline: tight\n");
  EXPECT_EQ(issue.line, 3);
  EXPECT_EQ(issue.field, "control.blackout_gap_factor");
  EXPECT_NE(issue.message.find("must be > 1"), std::string::npos);

  issue = MustFail(
      "name: x\n"
      "control:\n"
      "  blind_escalation_rate: 0\n"
      "workload:\n"
      "  - job: A\n"
      "    deadline: tight\n");
  EXPECT_EQ(issue.field, "control.blind_escalation_rate");

  issue = MustFail(
      "name: x\n"
      "control:\n"
      "  stale_hold_seconds: -5\n"
      "workload:\n"
      "  - job: A\n"
      "    deadline: tight\n");
  EXPECT_EQ(issue.field, "control.stale_hold_seconds");

  issue = MustFail(
      "name: x\n"
      "control:\n"
      "  grant_ratio_ewma: 1.5\n"
      "workload:\n"
      "  - job: A\n"
      "    deadline: tight\n");
  EXPECT_EQ(issue.field, "control.grant_ratio_ewma");
}

// The canonical bytes of every checked-in scenario and of the two in-file documents,
// pinned by length and FNV-1a: a change to the reader or writer that moves a key,
// reformats a number or drops a default shows here. Each document must also be a
// fixed point of parse -> write.
TEST(ScenarioSpecTest, CanonicalJsonIsPinnedForEveryDocument) {
  struct Golden {
    const char* name;
    std::string text;
    size_t length;
    uint64_t fnv1a;
  };
  auto read_scenario = [](const char* filename) {
    std::ifstream in(std::string(JOCKEY_SCENARIO_DIR) + "/" + filename);
    EXPECT_TRUE(in.good()) << "cannot read " << filename;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  const Golden kGolden[] = {
      {"burst_faults.yaml", read_scenario("burst_faults.yaml"), 523, 0x1bdf7866d31f76e7ULL},
      {"chaos_dropout.yaml", read_scenario("chaos_dropout.yaml"), 205, 0xf1fc6e0da451f1c5ULL},
      {"diurnal_mix.yaml", read_scenario("diurnal_mix.yaml"), 553, 0xd7a5f717b365428bULL},
      {"fig6_overload.yaml", read_scenario("fig6_overload.yaml"), 246, 0x530c7abe41c11156ULL},
      {"gray_failure.yaml", read_scenario("gray_failure.yaml"), 696, 0xd5c6b835b5ecfa8eULL},
      {"policy_matrix.yaml", read_scenario("policy_matrix.yaml"), 406, 0x12798b71eba83a50ULL},
      {"random_fleet.yaml", read_scenario("random_fleet.yaml"), 569, 0x39d3f52a2bebdd44ULL},
      {"kFullScenario", kFullScenario, 806, 0xf17997f93f0378caULL},
      {"kInlineWindowsScenario", kInlineWindowsScenario, 301, 0x6a28f753e5f8e07bULL},
  };
  for (const Golden& golden : kGolden) {
    SCOPED_TRACE(golden.name);
    std::string json = WriteScenarioJson(MustParse(golden.text));
    EXPECT_EQ(json.size(), golden.length);
    EXPECT_EQ(HashString(json), golden.fnv1a) << std::hex << "0x" << HashString(json);
    EXPECT_EQ(WriteScenarioJson(MustParse(json)), json);
  }
}

// Numbers go through the strict JSON number grammar: a value the canonical writer
// could not spell back (non-finite, hex, out of range, a fraction where an integer
// belongs) is rejected at its own line and field, never clamped or truncated.
TEST(ScenarioSpecTest, RejectsNonFiniteAndNonCanonicalNumbers) {
  constexpr char kWorkload[] = "workload:\n  - job: A\n    deadline: tight\n";
  struct Row {
    std::string text;
    int line;
    const char* field;
  };
  const Row kRows[] = {
      {"name: x\nworkload:\n  - job: A\n    deadline: {minutes: inf}\n", 4,
       "workload[0].deadline.minutes"},
      {"name: x\nworkload:\n  - job: A\n    deadline: {minutes: nan}\n", 4,
       "workload[0].deadline.minutes"},
      {std::string("name: x\ninput_scale: 0x10\n") + kWorkload, 2, "input_scale"},
      {std::string("name: x\nseed: 99999999999999999999999\n") + kWorkload, 2, "seed"},
      {std::string("name: x\nrepeats: 1e300\n") + kWorkload, 2, "repeats"},
      {std::string("name: x\nrepeats: 2.0\n") + kWorkload, 2, "repeats"},
      {std::string("name: x\noverload:\n  start: 0\n  duration: 60\n  utilization: 1e999\n") +
           kWorkload,
       5, "overload.utilization"},
      {std::string("name: x\ncontrol:\n  max_tokens: 3000000000\n") + kWorkload, 3,
       "control.max_tokens"},
  };
  for (const Row& row : kRows) {
    SCOPED_TRACE(row.text);
    ScenarioParseIssue issue = MustFail(row.text);
    EXPECT_EQ(issue.line, row.line);
    EXPECT_EQ(issue.field, row.field);
  }
}

TEST(ScenarioSpecTest, CommentsAndBlankLinesIgnored) {
  ScenarioSpec spec = MustParse(
      "# header comment\n"
      "\n"
      "name: commented   # trailing comment\n"
      "workload:\n"
      "  # a list comment\n"
      "  - job: A\n"
      "    deadline: tight\n");
  EXPECT_EQ(spec.name, "commented");
}

}  // namespace
}  // namespace jockey
