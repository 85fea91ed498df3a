#include "src/fault/fault_plan.h"

#include <istream>
#include <ostream>
#include <sstream>

#include "src/obs/json_format.h"
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

// The shared fault-kind registry (trace_event.h) in the bool-out shape the loader
// uses; a new kind missing its name shows up as a load failure, not a silent default.
bool FaultKindFromName(const std::string& name, FaultKind* out) {
  std::optional<FaultKind> kind = ParseFaultKind(name);
  if (!kind.has_value()) {
    return false;
  }
  *out = *kind;
  return true;
}

bool ParseField(std::string_view raw, double* out) { return ParseJsonNumber(raw, *out); }
bool ParseField(std::string_view raw, int* out) { return ParseJsonInt(raw, *out); }
bool ParseField(std::string_view raw, uint64_t* out) { return ParseJsonInt(raw, *out); }

// A required field must be present and well-formed.
template <typename T>
bool ReadRequired(const FlatJsonFields& fields, const char* key, T* out) {
  const std::string_view* raw = fields.FindBare(key);
  return raw != nullptr && ParseField(*raw, out);
}

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
  os << "{\"kind\":\"fault_plan\",\"seed\":" << seed_ << "}\n";
  for (const FaultWindow& w : windows_) {
    os << "{\"kind\":\"" << FaultKindName(w.kind) << "\""
       << ",\"start\":" << JsonNumber(w.start_seconds)
       << ",\"end\":" << JsonNumber(w.end_seconds) << ",\"job\":" << w.job
       << ",\"magnitude\":" << JsonNumber(w.magnitude)
       << ",\"first_machine\":" << w.first_machine
       << ",\"machine_count\":" << w.machine_count
       << ",\"period\":" << JsonNumber(w.period_seconds) << "}\n";
  }
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
      if (!ReadRequired(fields, "seed", &plan.seed_)) {
        return fail("bad plan seed");
      }
      saw_header = true;
      continue;
    }
    FaultWindow w;
    if (!FaultKindFromName(std::string(*kind_name), &w.kind)) {
      return fail("unknown fault kind \"" + std::string(*kind_name) + "\"");
    }
    if (!ReadRequired(fields, "start", &w.start_seconds) ||
        !ReadRequired(fields, "end", &w.end_seconds)) {
      return fail("missing start/end");
    }
    // Optional fields keep hand-written plans terse; defaults match FaultWindow. A
    // present field must still be well-formed: a typo never silently becomes the
    // default.
    const char* malformed = nullptr;
    auto optional = [&](const char* key, auto* out) {
      const FlatJsonFields::Field* field = fields.Find(key);
      if (malformed == nullptr && field != nullptr &&
          (field->quoted || !ParseField(field->value, out))) {
        malformed = key;
      }
    };
    optional("job", &w.job);
    optional("magnitude", &w.magnitude);
    optional("first_machine", &w.first_machine);
    optional("machine_count", &w.machine_count);
    optional("period", &w.period_seconds);
    if (malformed != nullptr) {
      return fail(std::string("malformed \"") + malformed + "\"");
    }
    plan.windows_.push_back(w);
  }
  if (!saw_header && plan.windows_.empty()) {
    return Fail(error, "empty fault plan (no header, no windows)");
  }
  const std::string problem = plan.Validate();
  if (!problem.empty()) return Fail(error, problem);
  return plan;
}

}  // namespace jockey
