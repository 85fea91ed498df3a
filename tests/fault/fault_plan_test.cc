// Tests for the FaultPlan schedule: builders, validation, JSONL round-trip.

#include "src/fault/fault_plan.h"

#include <gtest/gtest.h>

#include <sstream>

namespace jockey {
namespace {

TEST(FaultPlanTest, BuildersFillKindAndMagnitude) {
  FaultWindow dropout = FaultPlan::ReportDropout(10.0, 20.0, 3);
  EXPECT_EQ(dropout.kind, FaultKind::kReportDropout);
  EXPECT_EQ(dropout.job, 3);
  EXPECT_TRUE(dropout.Contains(10.0));
  EXPECT_TRUE(dropout.Contains(19.999));
  EXPECT_FALSE(dropout.Contains(20.0));  // half-open
  EXPECT_TRUE(dropout.AppliesTo(3));
  EXPECT_FALSE(dropout.AppliesTo(4));

  FaultWindow stale = FaultPlan::ReportStale(0.0, 5.0, 90.0);
  EXPECT_EQ(stale.kind, FaultKind::kReportStale);
  EXPECT_DOUBLE_EQ(stale.magnitude, 90.0);
  EXPECT_TRUE(stale.AppliesTo(7));  // job = -1 targets every job

  FaultWindow burst = FaultPlan::MachineBurst(1.0, 2.0, 10, 5);
  EXPECT_EQ(burst.kind, FaultKind::kMachineBurst);
  EXPECT_EQ(burst.first_machine, 10);
  EXPECT_EQ(burst.machine_count, 5);
}

TEST(FaultPlanTest, GrayBuildersFillKindSpecificFields) {
  FaultWindow slow = FaultPlan::MachineSlowdown(10.0, 50.0, 3.0, 8, 4);
  EXPECT_EQ(slow.kind, FaultKind::kMachineSlowdown);
  EXPECT_DOUBLE_EQ(slow.magnitude, 3.0);
  EXPECT_TRUE(slow.CoversMachine(8));
  EXPECT_TRUE(slow.CoversMachine(11));
  EXPECT_FALSE(slow.CoversMachine(12));  // half-open machine range
  EXPECT_FALSE(slow.CoversMachine(7));

  FaultWindow skew = FaultPlan::ProfileSkew(0.0, 100.0, 0.6);
  EXPECT_EQ(skew.kind, FaultKind::kProfileSkew);
  EXPECT_DOUBLE_EQ(skew.magnitude, 0.6);
  EXPECT_TRUE(skew.AppliesTo(3));  // not job-scoped

  FaultWindow spike = FaultPlan::AdversarialSpike(5.0, 305.0, 0.5, 60.0);
  EXPECT_EQ(spike.kind, FaultKind::kAdversarialSpike);
  EXPECT_DOUBLE_EQ(spike.magnitude, 0.5);
  EXPECT_DOUBLE_EQ(spike.period_seconds, 60.0);
}

TEST(FaultPlanTest, ValidateAcceptsWellFormedPlan) {
  FaultPlan plan(42);
  plan.Add(FaultPlan::ReportDropout(0.0, 10.0))
      .Add(FaultPlan::ReportStale(5.0, 15.0, 30.0))
      .Add(FaultPlan::ReportNoise(0.0, 100.0, 0.2))
      .Add(FaultPlan::ControlBlackout(20.0, 40.0))
      .Add(FaultPlan::GrantShortfall(0.0, 50.0, 0.5))
      .Add(FaultPlan::TableFault(0.0, 1.0, 0.25))
      .Add(FaultPlan::MachineBurst(10.0, 20.0, 0, 8))
      .Add(FaultPlan::MachineSlowdown(0.0, 30.0, 2.5, 0, 16))
      .Add(FaultPlan::ProfileSkew(0.0, 60.0, 0.4))
      .Add(FaultPlan::AdversarialSpike(0.0, 600.0, 0.8, 60.0));
  EXPECT_EQ(plan.Validate(), "");
}

TEST(FaultPlanTest, ValidateRejectsMalformedWindows) {
  // Inverted interval.
  EXPECT_NE(FaultPlan().Add(FaultPlan::ReportDropout(10.0, 10.0)).Validate(), "");
  EXPECT_NE(FaultPlan().Add(FaultPlan::ReportDropout(-1.0, 10.0)).Validate(), "");
  // Kind-specific magnitudes.
  EXPECT_NE(FaultPlan().Add(FaultPlan::ReportStale(0.0, 1.0, 0.0)).Validate(), "");
  EXPECT_NE(FaultPlan().Add(FaultPlan::ReportNoise(0.0, 1.0, -0.1)).Validate(), "");
  EXPECT_NE(FaultPlan().Add(FaultPlan::GrantShortfall(0.0, 1.0, 1.5)).Validate(), "");
  EXPECT_NE(FaultPlan().Add(FaultPlan::TableFault(0.0, 1.0, 0.0)).Validate(), "");
  EXPECT_NE(FaultPlan().Add(FaultPlan::MachineBurst(0.0, 1.0, -1, 5)).Validate(), "");
  EXPECT_NE(FaultPlan().Add(FaultPlan::MachineBurst(0.0, 1.0, 0, 0)).Validate(), "");
}

TEST(FaultPlanTest, ValidateRejectsMalformedGrayWindows) {
  // A slowdown factor of 1 is a no-op; below 1 would be a speedup.
  std::string err =
      FaultPlan().Add(FaultPlan::MachineSlowdown(0.0, 1.0, 1.0, 0, 4)).Validate();
  EXPECT_NE(err.find("slowdown factor must be > 1"), std::string::npos) << err;
  EXPECT_NE(FaultPlan().Add(FaultPlan::MachineSlowdown(0.0, 1.0, 2.0, -1, 4)).Validate(),
            "");
  EXPECT_NE(FaultPlan().Add(FaultPlan::MachineSlowdown(0.0, 1.0, 2.0, 0, 0)).Validate(),
            "");

  // Skew strength is an open interval: 1.0 would zero out predictions entirely.
  err = FaultPlan().Add(FaultPlan::ProfileSkew(0.0, 1.0, 1.0)).Validate();
  EXPECT_NE(err.find("skew strength must be in (0, 1)"), std::string::npos) << err;
  EXPECT_NE(FaultPlan().Add(FaultPlan::ProfileSkew(0.0, 1.0, 0.0)).Validate(), "");

  EXPECT_NE(FaultPlan().Add(FaultPlan::AdversarialSpike(0.0, 1.0, 0.0, 60.0)).Validate(),
            "");
  err = FaultPlan().Add(FaultPlan::AdversarialSpike(0.0, 1.0, 0.5, 0.0)).Validate();
  EXPECT_NE(err.find("spike period must be > 0"), std::string::npos) << err;
}

TEST(FaultPlanTest, SaveLoadRoundTrip) {
  FaultPlan plan(99);
  plan.Add(FaultPlan::ReportDropout(10.5, 20.25, 2))
      .Add(FaultPlan::GrantShortfall(30.0, 60.0, 0.4))
      .Add(FaultPlan::MachineBurst(100.0, 200.0, 12, 6))
      .Add(FaultPlan::MachineSlowdown(50.0, 150.0, 2.75, 4, 9))
      .Add(FaultPlan::ProfileSkew(0.0, 300.0, 0.55))
      .Add(FaultPlan::AdversarialSpike(25.0, 625.0, 0.9, 45.0));

  std::ostringstream saved;
  plan.Save(saved);
  std::istringstream in(saved.str());
  std::string error;
  std::optional<FaultPlan> loaded = FaultPlan::Load(in, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->seed(), 99u);
  ASSERT_EQ(loaded->windows().size(), 6u);
  const FaultWindow& w0 = loaded->windows()[0];
  EXPECT_EQ(w0.kind, FaultKind::kReportDropout);
  EXPECT_DOUBLE_EQ(w0.start_seconds, 10.5);
  EXPECT_DOUBLE_EQ(w0.end_seconds, 20.25);
  EXPECT_EQ(w0.job, 2);
  const FaultWindow& w2 = loaded->windows()[2];
  EXPECT_EQ(w2.first_machine, 12);
  EXPECT_EQ(w2.machine_count, 6);
  const FaultWindow& slow = loaded->windows()[3];
  EXPECT_EQ(slow.kind, FaultKind::kMachineSlowdown);
  EXPECT_DOUBLE_EQ(slow.magnitude, 2.75);
  EXPECT_EQ(slow.first_machine, 4);
  EXPECT_EQ(slow.machine_count, 9);
  EXPECT_EQ(loaded->windows()[4].kind, FaultKind::kProfileSkew);
  const FaultWindow& spike = loaded->windows()[5];
  EXPECT_EQ(spike.kind, FaultKind::kAdversarialSpike);
  EXPECT_DOUBLE_EQ(spike.magnitude, 0.9);
  EXPECT_DOUBLE_EQ(spike.period_seconds, 45.0);

  // A second Save of the loaded plan is byte-identical (the JSONL form is canonical).
  std::ostringstream resaved;
  loaded->Save(resaved);
  EXPECT_EQ(saved.str(), resaved.str());
}

TEST(FaultPlanTest, LoadToleratesTerseHandWrittenLines) {
  // Optional fields (job, magnitude, machines) default; blank lines are skipped.
  std::istringstream in(
      "{\"kind\":\"fault_plan\",\"seed\":7}\n"
      "\n"
      "{\"kind\":\"control_blackout\",\"start\":60,\"end\":120}\n");
  std::string error;
  std::optional<FaultPlan> plan = FaultPlan::Load(in, &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_EQ(plan->seed(), 7u);
  ASSERT_EQ(plan->windows().size(), 1u);
  EXPECT_EQ(plan->windows()[0].job, -1);
}

TEST(FaultPlanTest, LoadRejectsGarbage) {
  std::string error;

  std::istringstream not_json("this is not json\n");
  EXPECT_FALSE(FaultPlan::Load(not_json, &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos);

  std::istringstream unknown_kind("{\"kind\":\"disk_melt\",\"start\":0,\"end\":1}\n");
  EXPECT_FALSE(FaultPlan::Load(unknown_kind, &error).has_value());
  EXPECT_NE(error.find("disk_melt"), std::string::npos);

  std::istringstream missing_interval("{\"kind\":\"report_dropout\",\"start\":0}\n");
  EXPECT_FALSE(FaultPlan::Load(missing_interval, &error).has_value());

  std::istringstream empty("");
  EXPECT_FALSE(FaultPlan::Load(empty, &error).has_value());
  EXPECT_NE(error.find("empty"), std::string::npos);

  // Windows that parse but fail Validate() are rejected too.
  std::istringstream invalid("{\"kind\":\"report_stale\",\"start\":0,\"end\":10}\n");
  EXPECT_FALSE(FaultPlan::Load(invalid, &error).has_value());
  EXPECT_NE(error.find("staleness lag"), std::string::npos);
}

// Present-but-malformed fields are errors, never silent defaults or casts: each
// hostile line is rejected and the message names what was wrong.
TEST(FaultPlanTest, LoadRejectsMalformedPresentFields) {
  struct Case {
    const char* text;
    const char* expect;
  };
  const Case cases[] = {
      {"{\"kind\":\"fault_plan\",\"seed\":1e300}\n", "bad plan seed"},
      {"{\"kind\":\"fault_plan\",\"seed\":nan}\n", "bad plan seed"},
      {"{\"kind\":\"fault_plan\",\"seed\":-1}\n", "bad plan seed"},
      {"{\"kind\":\"fault_plan\",\"seed\":7.5}\n", "bad plan seed"},
      {"{\"kind\":\"control_blackout\",\"start\":\"\",\"end\":120}\n", "start/end"},
      {"{\"kind\":\"control_blackout\",\"start\":60,\"end\":inf}\n", "start/end"},
      {"{\"kind\":\"control_blackout\",\"start\":60,\"end\":120,\"job\":\"oops\"}\n",
       "\"job\""},
      {"{\"kind\":\"control_blackout\",\"start\":60,\"end\":120,\"job\":1e300}\n",
       "\"job\""},
      {"{\"kind\":\"machine_burst\",\"start\":0,\"end\":1,\"first_machine\":0,"
       "\"machine_count\":2.5}\n",
       "\"machine_count\""},
      {"{\"kind\":\"report_stale\",\"start\":0,\"end\":1,\"magnitude\":\"\"}\n",
       "\"magnitude\""},
      {"{\"kind\":\"adversarial_spike\",\"start\":0,\"end\":1,\"magnitude\":1,"
       "\"period\":nan}\n",
       "\"period\""},
      // Ambiguous lines: a repeated key, a quoted number, a bare string.
      {"{\"kind\":\"control_blackout\",\"start\":60,\"end\":120,\"job\":1,\"job\":2}\n",
       "duplicate key 'job'"},
      {"{\"kind\":\"control_blackout\",\"start\":60,\"end\":120,\"job\":\"5\"}\n",
       "\"job\""},
      {"{\"kind\":\"control_blackout\",\"start\":\"60\",\"end\":120}\n", "start/end"},
      {"{\"kind\":\"fault_plan\",\"seed\":\"7\"}\n", "bad plan seed"},
      {"{\"kind\":control_blackout,\"start\":60,\"end\":120}\n", "\"kind\""},
      // A key no window defines: a typo never silently becomes the default.
      {"{\"kind\":\"report_dropout\",\"start\":60,\"end\":120,\"jbo\":3}\n", "\"jbo\""},
  };
  for (const Case& c : cases) {
    std::istringstream in(c.text);
    std::string error;
    EXPECT_FALSE(FaultPlan::Load(in, &error).has_value()) << c.text;
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;
    EXPECT_NE(error.find(c.expect), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace jockey
