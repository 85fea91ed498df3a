#include "src/fault/fault_plan.h"

#include <istream>
#include <ostream>
#include <sstream>

#include "src/obs/jsonl.h"

namespace jockey {

namespace {

FaultWindow MakeWindow(FaultKind kind, double start, double end, int job,
                       double magnitude) {
  FaultWindow w;
  w.kind = kind;
  w.start_seconds = start;
  w.end_seconds = end;
  w.job = job;
  w.magnitude = magnitude;
  return w;
}

// The plan header line, {"kind":"fault_plan","seed":N}.
struct PlanHeader {
  uint64_t seed = 1;
};
constexpr std::tuple kHeaderFields{Field("seed", &PlanHeader::seed)};

// A window line: {"kind":"<fault kind>", then these. The optional fields keep
// hand-written plans terse; their defaults are FaultWindow's. A present field must
// still be well-formed: a typo never silently becomes the default.
constexpr std::tuple kWindowFields{
    Field("start", &FaultWindow::start_seconds),
    Field("end", &FaultWindow::end_seconds),
    Field("job", &FaultWindow::job, kOptional),
    Field("magnitude", &FaultWindow::magnitude, kOptional),
    Field("first_machine", &FaultWindow::first_machine, kOptional),
    Field("machine_count", &FaultWindow::machine_count, kOptional),
    Field("period", &FaultWindow::period_seconds, kOptional)};

std::optional<FaultPlan> Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return std::nullopt;
}

}  // namespace

FaultPlan& FaultPlan::Add(FaultWindow window) {
  windows_.push_back(window);
  return *this;
}

FaultWindow FaultPlan::ReportDropout(double start, double end, int job) {
  return MakeWindow(FaultKind::kReportDropout, start, end, job, 0.0);
}

FaultWindow FaultPlan::ReportStale(double start, double end, double lag_seconds,
                                   int job) {
  return MakeWindow(FaultKind::kReportStale, start, end, job, lag_seconds);
}

FaultWindow FaultPlan::ReportNoise(double start, double end, double sigma, int job) {
  return MakeWindow(FaultKind::kReportNoise, start, end, job, sigma);
}

FaultWindow FaultPlan::ControlBlackout(double start, double end, int job) {
  return MakeWindow(FaultKind::kControlBlackout, start, end, job, 0.0);
}

FaultWindow FaultPlan::GrantShortfall(double start, double end, double grant_factor,
                                      int job) {
  return MakeWindow(FaultKind::kGrantShortfall, start, end, job, grant_factor);
}

FaultWindow FaultPlan::TableFault(double start, double end, double corruption_factor) {
  return MakeWindow(FaultKind::kTableFault, start, end, -1, corruption_factor);
}

FaultWindow FaultPlan::MachineBurst(double start, double end, int first_machine,
                                    int machine_count) {
  FaultWindow w = MakeWindow(FaultKind::kMachineBurst, start, end, -1, 0.0);
  w.first_machine = first_machine;
  w.machine_count = machine_count;
  return w;
}

FaultWindow FaultPlan::MachineSlowdown(double start, double end, double factor,
                                       int first_machine, int machine_count) {
  FaultWindow w = MakeWindow(FaultKind::kMachineSlowdown, start, end, -1, factor);
  w.first_machine = first_machine;
  w.machine_count = machine_count;
  return w;
}

FaultWindow FaultPlan::ProfileSkew(double start, double end, double skew) {
  return MakeWindow(FaultKind::kProfileSkew, start, end, -1, skew);
}

FaultWindow FaultPlan::AdversarialSpike(double start, double end, double boost,
                                        double period_seconds) {
  FaultWindow w = MakeWindow(FaultKind::kAdversarialSpike, start, end, -1, boost);
  w.period_seconds = period_seconds;
  return w;
}

std::string FaultPlan::Validate() const {
  for (size_t i = 0; i < windows_.size(); ++i) {
    const FaultWindow& w = windows_[i];
    std::ostringstream prefix;
    prefix << "window " << i << " (" << FaultKindName(w.kind) << "): ";
    if (!(w.end_seconds > w.start_seconds) || w.start_seconds < 0.0) {
      return prefix.str() + "interval must satisfy 0 <= start < end";
    }
    switch (w.kind) {
      case FaultKind::kReportStale:
        if (w.magnitude <= 0.0) return prefix.str() + "staleness lag must be > 0";
        break;
      case FaultKind::kReportNoise:
        if (w.magnitude <= 0.0) return prefix.str() + "noise sigma must be > 0";
        break;
      case FaultKind::kGrantShortfall:
        if (w.magnitude < 0.0 || w.magnitude > 1.0) {
          return prefix.str() + "grant factor must be in [0, 1]";
        }
        break;
      case FaultKind::kTableFault:
        if (w.magnitude <= 0.0) {
          return prefix.str() + "corruption factor must be > 0";
        }
        break;
      case FaultKind::kMachineBurst:
        if (w.first_machine < 0 || w.machine_count <= 0) {
          return prefix.str() + "machine range must be non-negative and non-empty";
        }
        break;
      case FaultKind::kMachineSlowdown:
        if (w.magnitude <= 1.0) {
          return prefix.str() + "slowdown factor must be > 1";
        }
        if (w.first_machine < 0 || w.machine_count <= 0) {
          return prefix.str() + "machine range must be non-negative and non-empty";
        }
        break;
      case FaultKind::kProfileSkew:
        if (w.magnitude <= 0.0 || w.magnitude >= 1.0) {
          return prefix.str() + "skew strength must be in (0, 1)";
        }
        break;
      case FaultKind::kAdversarialSpike:
        if (w.magnitude <= 0.0) {
          return prefix.str() + "utilization boost must be > 0";
        }
        if (w.period_seconds <= 0.0) {
          return prefix.str() + "spike period must be > 0";
        }
        break;
      case FaultKind::kReportDropout:
      case FaultKind::kControlBlackout:
        break;
    }
  }
  return std::string();
}

void FaultPlan::Save(std::ostream& os) const {
  std::string line = "{\"kind\":\"fault_plan\"";
  AppendFields<kHeaderFields>(line, PlanHeader{seed_});
  line += "}\n";
  for (const FaultWindow& w : windows_) {
    line += "{\"kind\":\"";
    line += FaultKindName(w.kind);
    line += '"';
    AppendFields<kWindowFields>(line, w);
    line += "}\n";
  }
  os << line;
}

std::optional<FaultPlan> FaultPlan::Load(std::istream& is, std::string* error) {
  FaultPlan plan;
  bool saw_header = false;
  std::string line;
  FlatJsonFields fields;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    auto fail = [&](const std::string& message) {
      return Fail(error, "line " + std::to_string(line_no) + ": " + message);
    };
    if (!ParseFlatJsonObject(line, fields)) {
      return fail(fields.ParseError());
    }
    const std::string_view* kind_name = fields.FindString("kind");
    if (kind_name == nullptr) {
      return fail("missing or unquoted \"kind\"");
    }
    if (*kind_name == "fault_plan") {
      PlanHeader header;
      if (!ReadFields<kHeaderFields>(fields, header)) {
        return fail("bad plan seed");
      }
      plan.seed_ = header.seed;
      saw_header = true;
    } else {
      std::optional<FaultKind> kind = ParseFaultKind(*kind_name);
      if (!kind.has_value()) {
        return fail("unknown fault kind \"" + std::string(*kind_name) + "\"");
      }
      FaultWindow w;
      w.kind = *kind;
      if (!ReadFields<kWindowFields>(fields, w)) {
        return fail("bad \"" + std::string(fields.rejected_key) +
                    "\" (start/end are required, the rest optional)");
      }
      plan.windows_.push_back(w);
    }
    if (const FlatJsonFields::Field* extra = fields.FirstUnread()) {
      return fail("undefined key \"" + std::string(extra->key) + "\"");
    }
  }
  if (!saw_header && plan.windows_.empty()) {
    return Fail(error, "empty fault plan (no header, no windows)");
  }
  const std::string problem = plan.Validate();
  if (!problem.empty()) return Fail(error, problem);
  return plan;
}

}  // namespace jockey
