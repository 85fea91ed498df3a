#include "src/scenario/spec.h"

#include <charconv>
#include <type_traits>
#include <utility>
#include <variant>

#include "src/fault/chaos_matrix.h"
#include "src/obs/json_format.h"
#include "src/scenario/doc.h"

namespace jockey {
namespace {

bool Fail(ScenarioParseIssue* issue, int line, std::string field, std::string message) {
  // Keep the first problem only: callers bubble `false` upward.
  if (issue->line == 0) {
    issue->line = line;
    issue->field = std::move(field);
    issue->message = std::move(message);
  }
  return false;
}

std::string Join(const std::string& path, const std::string& key) {
  return path.empty() ? key : path + "." + key;
}

// Strict map access: Get() marks keys consumed, Finish() rejects leftovers with the
// unknown key's own line.
class MapReader {
 public:
  MapReader(const DocNode& node, std::string path, ScenarioParseIssue* issue)
      : node_(node), path_(std::move(path)), issue_(issue) {
    if (node_.kind != DocNode::Kind::kMap) {
      ok_ = false;
      Fail(issue_, node_.line, path_, "expected a map");
    } else {
      consumed_.assign(node_.entries.size(), false);
    }
  }

  bool ok() const { return ok_; }

  const DocNode* Get(const char* key) {
    for (size_t i = 0; i < node_.entries.size(); ++i) {
      if (node_.entries[i].key == key) {
        consumed_[i] = true;
        return &node_.entries[i].node();
      }
    }
    return nullptr;
  }

  bool Finish() {
    for (size_t i = 0; i < node_.entries.size(); ++i) {
      if (!consumed_[i]) {
        return Fail(issue_, node_.entries[i].line, Join(path_, node_.entries[i].key),
                    "unknown key \"" + node_.entries[i].key + "\"");
      }
    }
    return true;
  }

  std::string Sub(const char* key) const { return Join(path_, key); }
  int line() const { return node_.line; }

 private:
  const DocNode& node_;
  std::string path_;
  ScenarioParseIssue* issue_;
  std::vector<bool> consumed_;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Field tables. Every scenario record is one table of Fields: its key, the member
// it fills, whether the key may be absent, and its range rule. One reader
// (ReadFields) and one canonical writer (WriteFields) expand every table, so a key
// is spelled once and its reader, range check and writer cannot drift apart.
//
// The codec follows from the member's type: numbers go through json_format's strict
// ParseJsonNumber / ParseJsonInt (the grammar the JSONL readers share: finite
// decimal only, integers that fit their type), enums through their wire-name
// registries, and record types through their own tables. A std::optional member is
// written only when set; any other member is always written, so a spec's defaults
// are spelled out in its canonical form.

enum class Presence { kOptional, kRequired };

// The closed set of range rules, each with its one message.
enum class Range {
  kAny,
  kPositive,      // > 0
  kNonNegative,   // >= 0
  kAtLeastOne,    // >= 1
  kUnitInterval,  // (0, 1]
  kAboveOne,      // > 1
  kNonEmpty,      // strings
};

template <typename S, typename... V>
using MemberOf = std::variant<V S::*..., std::optional<V> S::*...>;

template <typename S>
using Member = MemberOf<S, double, int, uint64_t, bool, std::string, PolicyKind, FaultKind,
                        DeadlineSpec, ArrivalSpec, OverloadSpec, DeadlineChangeSpec, FaultSpec,
                        ControlSpec>;

template <typename S>
struct Field {
  const char* key;
  Member<S> member;
  Range range = Range::kAny;
  Presence presence = Presence::kOptional;
};

// Codecs of the record-valued members, defined after their tables.
bool Decode(const DocNode&, const std::string&, DeadlineSpec&, ScenarioParseIssue*);
bool Decode(const DocNode&, const std::string&, ArrivalSpec&, ScenarioParseIssue*);
bool Decode(const DocNode&, const std::string&, OverloadSpec&, ScenarioParseIssue*);
bool Decode(const DocNode&, const std::string&, DeadlineChangeSpec&, ScenarioParseIssue*);
bool Decode(const DocNode&, const std::string&, FaultSpec&, ScenarioParseIssue*);
bool Decode(const DocNode&, const std::string&, ControlSpec&, ScenarioParseIssue*);
void Encode(std::string& out, const DeadlineSpec& deadline);
void Encode(std::string& out, const ArrivalSpec& arrivals);
void Encode(std::string& out, const OverloadSpec& overload);
void Encode(std::string& out, const DeadlineChangeSpec& change);
void Encode(std::string& out, const FaultSpec& faults);
void Encode(std::string& out, const ControlSpec& control);

// ---------------------------------------------------------------------------
// Scalar codecs. Numbers and booleans reject quoted scalars, so "seed": "3" is a
// type error, not a coercion.

bool BareScalar(const DocNode& node) {
  return node.kind == DocNode::Kind::kScalar && !node.was_quoted;
}

bool Decode(const DocNode& node, const std::string& path, std::string& out,
            ScenarioParseIssue* issue) {
  if (node.kind != DocNode::Kind::kScalar) {
    return Fail(issue, node.line, path, "expected a string");
  }
  out = node.scalar;
  return true;
}

bool Decode(const DocNode& node, const std::string& path, double& out,
            ScenarioParseIssue* issue) {
  if (!BareScalar(node)) {
    return Fail(issue, node.line, path, "expected a number");
  }
  if (!ParseJsonNumber(node.scalar, out)) {
    return Fail(issue, node.line, path, "bad number \"" + node.scalar + "\"");
  }
  return true;
}

template <typename T, typename = std::enable_if_t<std::is_same_v<T, int> ||
                                                  std::is_same_v<T, uint64_t>>>
bool Decode(const DocNode& node, const std::string& path, T& out, ScenarioParseIssue* issue) {
  if (!BareScalar(node)) {
    return Fail(issue, node.line, path, "expected an integer");
  }
  if (!ParseJsonInt(node.scalar, out)) {
    return Fail(issue, node.line, path, "bad integer \"" + node.scalar + "\"");
  }
  return true;
}

bool Decode(const DocNode& node, const std::string& path, bool& out,
            ScenarioParseIssue* issue) {
  if (!BareScalar(node) || (node.scalar != "true" && node.scalar != "false")) {
    return Fail(issue, node.line, path, "expected true or false");
  }
  out = node.scalar == "true";
  return true;
}

// An enumerator by its wire name, resolved through the enum's registry.
template <typename E, typename Parse>
bool DecodeName(const DocNode& node, const std::string& path, Parse parse, const char* what,
                E& out, ScenarioParseIssue* issue) {
  std::string token;
  if (!Decode(node, path, token, issue)) {
    return false;
  }
  std::optional<E> value = parse(token);
  if (!value.has_value()) {
    return Fail(issue, node.line, path, "unknown " + std::string(what) + " \"" + token + "\"");
  }
  out = *value;
  return true;
}

bool Decode(const DocNode& node, const std::string& path, PolicyKind& out,
            ScenarioParseIssue* issue) {
  return DecodeName(node, path, ParsePolicyKind, "policy", out, issue);
}

bool Decode(const DocNode& node, const std::string& path, FaultKind& out,
            ScenarioParseIssue* issue) {
  return DecodeName(node, path, ParseFaultKind, "fault kind", out, issue);
}

void Encode(std::string& out, double value) { AppendJsonNumber(out, value); }
void Encode(std::string& out, bool value) { out += value ? "true" : "false"; }
void Encode(std::string& out, const std::string& value) { out += JsonString(value); }
void Encode(std::string& out, PolicyKind policy) { out += JsonString(PolicyId(policy)); }
void Encode(std::string& out, FaultKind kind) { out += JsonString(FaultKindName(kind)); }

template <typename T, typename = std::enable_if_t<std::is_same_v<T, int> ||
                                                  std::is_same_v<T, uint64_t>>>
void Encode(std::string& out, T value) {
  char buffer[24];
  out.append(buffer, std::to_chars(buffer, buffer + sizeof(buffer), value).ptr);
}

// ---------------------------------------------------------------------------
// Range rules: what `value` must be under `range`, or nullptr when it is.

template <typename T>
const char* RangeViolation(Range range, const T& value) {
  if constexpr (std::is_same_v<T, double> || std::is_same_v<T, int>) {
    switch (range) {
      case Range::kPositive:
        return value > 0 ? nullptr : "positive";
      case Range::kNonNegative:
        return value >= 0 ? nullptr : ">= 0";
      case Range::kAtLeastOne:
        return value >= 1 ? nullptr : ">= 1";
      case Range::kUnitInterval:
        return value > 0 && value <= 1 ? nullptr : "in (0, 1]";
      case Range::kAboveOne:
        return value > 1 ? nullptr : "> 1";
      default:
        break;
    }
  } else if constexpr (std::is_same_v<T, std::string>) {
    return range == Range::kNonEmpty && value.empty() ? "non-empty" : nullptr;
  }
  return nullptr;
}

// Decodes one value under `key` and applies its range rule.
template <typename T>
bool DecodeInRange(const DocNode& node, const std::string& path, const char* key, Range range,
                   T& out, ScenarioParseIssue* issue) {
  if (!Decode(node, path, out, issue)) {
    return false;
  }
  if (const char* rule = RangeViolation(range, out)) {
    return Fail(issue, node.line, path, std::string(key) + " must be " + rule);
  }
  return true;
}

template <typename T>
bool DecodeInRange(const DocNode& node, const std::string& path, const char* key, Range range,
                   std::optional<T>& out, ScenarioParseIssue* issue) {
  T value{};
  if (!DecodeInRange(node, path, key, range, value, issue)) {
    return false;
  }
  out = std::move(value);
  return true;
}

// ---------------------------------------------------------------------------
// The generic reader and writer. `Row` is Field<S> or a type derived from it.

template <typename S, typename Row, size_t N>
bool ReadFields(MapReader& map, const Row (&table)[N], S& out, ScenarioParseIssue* issue) {
  for (const Field<S>& field : table) {
    const DocNode* node = map.Get(field.key);
    if (node == nullptr) {
      if (field.presence == Presence::kRequired) {
        return Fail(issue, map.line(), map.Sub(field.key),
                    "missing required key \"" + std::string(field.key) + "\"");
      }
      continue;
    }
    bool ok = std::visit(
        [&](auto member) {
          return DecodeInRange(*node, map.Sub(field.key), field.key, field.range, out.*member,
                               issue);
        },
        field.member);
    if (!ok) {
      return false;
    }
  }
  return true;
}

template <typename S, typename Row, size_t N>
bool ReadRecord(const DocNode& node, const std::string& path, const Row (&table)[N], S& out,
                ScenarioParseIssue* issue) {
  MapReader map(node, path, issue);
  return map.ok() && ReadFields(map, table, out, issue) && map.Finish();
}

// A comma, unless `out` has just opened a map or a list.
void Separate(std::string& out) {
  if (out.back() != '{' && out.back() != '[') {
    out += ',';
  }
}

// `,"key":`
void AppendKey(std::string& out, const char* key) {
  Separate(out);
  out += '"';
  out += key;
  out += "\":";
}

template <typename T>
void EncodeField(std::string& out, const char* key, const T& value) {
  AppendKey(out, key);
  Encode(out, value);
}

template <typename T>
void EncodeField(std::string& out, const char* key, const std::optional<T>& value) {
  if (value.has_value()) {
    EncodeField(out, key, *value);
  }
}

template <typename S, typename Row, size_t N>
void WriteFields(std::string& out, const Row (&table)[N], const S& record) {
  for (const Field<S>& field : table) {
    std::visit([&](auto member) { EncodeField(out, field.key, record.*member); }, field.member);
  }
}

template <typename S, typename Row, size_t N>
void WriteRecord(std::string& out, const Row (&table)[N], const S& record) {
  out += '{';
  WriteFields(out, table, record);
  out += '}';
}

// ---------------------------------------------------------------------------
// The tables, in canonical key order.

const Field<OverloadSpec> kOverloadFields[] = {
    {"start", &OverloadSpec::start_seconds, Range::kNonNegative, Presence::kRequired},
    {"duration", &OverloadSpec::duration_seconds, Range::kPositive, Presence::kRequired},
    {"utilization", &OverloadSpec::utilization, Range::kPositive, Presence::kRequired},
};

// `factor` and `minutes` are a choice: exactly one is set (checked by Decode).
const Field<DeadlineChangeSpec> kDeadlineChangeFields[] = {
    {"at", &DeadlineChangeSpec::at_seconds, Range::kNonNegative, Presence::kRequired},
    {"factor", &DeadlineChangeSpec::factor, Range::kPositive},
    {"minutes", &DeadlineChangeSpec::minutes, Range::kPositive},
};

const Field<DeadlineSpec> kDeadlineMinutesFields[] = {
    {"minutes", &DeadlineSpec::minutes, Range::kPositive, Presence::kRequired},
};

// An inline fault window; the plan file spells `machines` as machine_count. Ranges
// are FaultPlan::Validate's, which knows each kind's magnitude.
const Field<FaultWindow> kFaultWindowFields[] = {
    {"kind", &FaultWindow::kind, Range::kAny, Presence::kRequired},
    {"start", &FaultWindow::start_seconds, Range::kAny, Presence::kRequired},
    {"end", &FaultWindow::end_seconds, Range::kAny, Presence::kRequired},
    {"magnitude", &FaultWindow::magnitude},
    {"job", &FaultWindow::job},
    {"first_machine", &FaultWindow::first_machine},
    {"machines", &FaultWindow::machine_count},
    {"period", &FaultWindow::period_seconds},
};

// A control knob and the member it sets: a ControlLoopConfig override, or for
// period_seconds and max_tokens the ExperimentOptions field the harness reads.
// Knob() checks that the two types agree.
struct ControlKnob : Field<ControlSpec> {
  std::variant<double ControlLoopConfig::*, bool ControlLoopConfig::*,
               double ExperimentOptions::*, int ExperimentOptions::*>
      sets;
};

template <typename V, typename Config>
constexpr ControlKnob Knob(const char* key, std::optional<V> ControlSpec::*member, Range range,
                           V Config::*sets) {
  return {{key, member, range}, sets};
}

// Ranges mirror ValidateControlLoopConfig.
const ControlKnob kControlKnobs[] = {
    Knob("period_seconds", &ControlSpec::period_seconds, Range::kPositive,
         &ExperimentOptions::control_period_seconds),
    Knob("max_tokens", &ControlSpec::max_tokens, Range::kAtLeastOne,
         &ExperimentOptions::max_tokens),
    Knob("slack", &ControlSpec::slack, Range::kPositive, &ControlLoopConfig::slack),
    Knob("hysteresis_alpha", &ControlSpec::hysteresis_alpha, Range::kUnitInterval,
         &ControlLoopConfig::hysteresis_alpha),
    Knob("dead_zone_seconds", &ControlSpec::dead_zone_seconds, Range::kNonNegative,
         &ControlLoopConfig::dead_zone_seconds),
    Knob("stale_hold_seconds", &ControlSpec::stale_hold_seconds, Range::kNonNegative,
         &ControlLoopConfig::stale_hold_seconds),
    Knob("blind_escalation_rate", &ControlSpec::blind_escalation_rate, Range::kUnitInterval,
         &ControlLoopConfig::blind_escalation_rate),
    Knob("blackout_gap_factor", &ControlSpec::blackout_gap_factor, Range::kAboveOne,
         &ControlLoopConfig::blackout_gap_factor),
    Knob("grant_ratio_ewma", &ControlSpec::grant_ratio_ewma, Range::kUnitInterval,
         &ControlLoopConfig::grant_ratio_ewma),
    Knob("decision_cache", &ControlSpec::decision_cache, Range::kAny,
         &ControlLoopConfig::enable_decision_cache),
};

const Field<RandomJobSpec> kRandomJobFields[] = {
    {"name", &RandomJobSpec::name, Range::kNonEmpty},
    {"seed", &RandomJobSpec::seed},
};

const Field<RandomJobParams> kRandomJobParamsFields[] = {
    {"min_stages", &RandomJobParams::min_stages, Range::kAtLeastOne},
    {"max_stages", &RandomJobParams::max_stages, Range::kAtLeastOne},
    {"min_vertices", &RandomJobParams::min_vertices, Range::kAtLeastOne},
    {"max_vertices", &RandomJobParams::max_vertices, Range::kAtLeastOne},
    {"min_median_seconds", &RandomJobParams::min_median_seconds, Range::kPositive},
    {"max_median_seconds", &RandomJobParams::max_median_seconds, Range::kPositive},
};

// Everything of a workload entry after its `job` | `random` choice.
const Field<WorkloadEntrySpec> kEntryFields[] = {
    {"deadline", &WorkloadEntrySpec::deadline},
    {"repeats", &WorkloadEntrySpec::repeats, Range::kAtLeastOne},
    {"seed", &WorkloadEntrySpec::seed},
    {"input_scale", &WorkloadEntrySpec::input_scale, Range::kPositive},
    {"jitter_input", &WorkloadEntrySpec::jitter_input},
    {"policy", &WorkloadEntrySpec::policy},
    {"hardened", &WorkloadEntrySpec::hardened},
    {"overload", &WorkloadEntrySpec::overload},
    {"deadline_change", &WorkloadEntrySpec::deadline_change},
    {"faults", &WorkloadEntrySpec::faults},
};

const Field<PhaseSpec> kPhaseFields[] = {
    {"name", &PhaseSpec::name, Range::kNonEmpty, Presence::kRequired},
    {"duration", &PhaseSpec::duration_seconds, Range::kPositive, Presence::kRequired},
    {"utilization", &PhaseSpec::utilization, Range::kPositive},
    {"arrivals", &PhaseSpec::arrivals, Range::kAny, Presence::kRequired},
};

// Everything of a scenario before its `workload` and `phases` lists.
const Field<ScenarioSpec> kScenarioFields[] = {
    {"name", &ScenarioSpec::name, Range::kNonEmpty, Presence::kRequired},
    {"seed", &ScenarioSpec::seed},
    {"repeats", &ScenarioSpec::repeats, Range::kAtLeastOne},
    {"policy", &ScenarioSpec::policy},
    {"jitter_input", &ScenarioSpec::jitter_input},
    {"hardened", &ScenarioSpec::hardened},
    {"use_spare_tokens", &ScenarioSpec::use_spare_tokens},
    {"fixed_tokens", &ScenarioSpec::fixed_tokens, Range::kAtLeastOne},
    {"input_scale", &ScenarioSpec::input_scale, Range::kPositive},
    {"overload", &ScenarioSpec::overload},
    {"deadline_change", &ScenarioSpec::deadline_change},
    {"faults", &ScenarioSpec::faults},
    {"control", &ScenarioSpec::control},
};

// ---------------------------------------------------------------------------
// Record codecs: the tables plus what no table can say.

bool Decode(const DocNode& node, const std::string& path, OverloadSpec& out,
            ScenarioParseIssue* issue) {
  return ReadRecord(node, path, kOverloadFields, out, issue);
}

void Encode(std::string& out, const OverloadSpec& overload) {
  WriteRecord(out, kOverloadFields, overload);
}

bool Decode(const DocNode& node, const std::string& path, ControlSpec& out,
            ScenarioParseIssue* issue) {
  return ReadRecord(node, path, kControlKnobs, out, issue);
}

void Encode(std::string& out, const ControlSpec& control) {
  WriteRecord(out, kControlKnobs, control);
}

bool Decode(const DocNode& node, const std::string& path, DeadlineChangeSpec& out,
            ScenarioParseIssue* issue) {
  if (!ReadRecord(node, path, kDeadlineChangeFields, out, issue)) {
    return false;
  }
  if (out.factor.has_value() == out.minutes.has_value()) {
    return Fail(issue, node.line, path,
                "deadline_change takes exactly one of \"factor\" or \"minutes\"");
  }
  return true;
}

void Encode(std::string& out, const DeadlineChangeSpec& change) {
  WriteRecord(out, kDeadlineChangeFields, change);
}

// `tight`, `long`, or `{minutes: N}`.
bool Decode(const DocNode& node, const std::string& path, DeadlineSpec& out,
            ScenarioParseIssue* issue) {
  if (node.kind != DocNode::Kind::kScalar) {
    out.kind = DeadlineSpec::Kind::kMinutes;
    return ReadRecord(node, path, kDeadlineMinutesFields, out, issue);
  }
  if (node.scalar == "tight" || node.scalar == "long") {
    out.kind = node.scalar == "tight" ? DeadlineSpec::Kind::kTight : DeadlineSpec::Kind::kLong;
    return true;
  }
  return Fail(issue, node.line, path,
              "bad deadline \"" + node.scalar + "\" (tight, long, or {minutes: N})");
}

void Encode(std::string& out, const DeadlineSpec& deadline) {
  switch (deadline.kind) {
    case DeadlineSpec::Kind::kTight:
      out += "\"tight\"";
      return;
    case DeadlineSpec::Kind::kLong:
      out += "\"long\"";
      return;
    case DeadlineSpec::Kind::kMinutes:
      WriteRecord(out, kDeadlineMinutesFields, deadline);
      return;
  }
}

// Exactly one of `period` and `poisson`.
bool Decode(const DocNode& node, const std::string& path, ArrivalSpec& out,
            ScenarioParseIssue* issue) {
  MapReader map(node, path, issue);
  if (!map.ok()) {
    return false;
  }
  const DocNode* period = map.Get("period");
  const DocNode* poisson = map.Get("poisson");
  if ((period == nullptr) == (poisson == nullptr)) {
    return Fail(issue, node.line, path, "arrivals takes exactly one of \"period\" or \"poisson\"");
  }
  const char* key = period != nullptr ? "period" : "poisson";
  out.kind = period != nullptr ? ArrivalSpec::Kind::kPeriodic : ArrivalSpec::Kind::kPoisson;
  return DecodeInRange(period != nullptr ? *period : *poisson, map.Sub(key), key,
                       Range::kPositive, out.value_seconds, issue) &&
         map.Finish();
}

void Encode(std::string& out, const ArrivalSpec& arrivals) {
  out += '{';
  EncodeField(out, arrivals.kind == ArrivalSpec::Kind::kPeriodic ? "period" : "poisson",
              arrivals.value_seconds);
  out += '}';
}

// Exactly one of `class`, `plan` and `windows` (with an optional `seed`).
bool Decode(const DocNode& node, const std::string& path, FaultSpec& out,
            ScenarioParseIssue* issue) {
  MapReader map(node, path, issue);
  if (!map.ok()) {
    return false;
  }
  const DocNode* class_name = map.Get("class");
  const DocNode* plan = map.Get("plan");
  const DocNode* windows = map.Get("windows");
  if ((class_name != nullptr) + (plan != nullptr) + (windows != nullptr) != 1) {
    return Fail(issue, node.line, path,
                "faults takes exactly one of \"class\", \"plan\" or \"windows\"");
  }
  if (class_name != nullptr) {
    out.kind = FaultSpec::Kind::kClass;
    if (!Decode(*class_name, map.Sub("class"), out.class_name, issue)) {
      return false;
    }
    bool known = false;
    for (const std::string& name : ChaosClassNames()) {
      known = known || name == out.class_name;
    }
    if (!known) {
      return Fail(issue, class_name->line, map.Sub("class"),
                  "unknown fault class \"" + out.class_name + "\"");
    }
    return map.Finish();
  }
  if (plan != nullptr) {
    out.kind = FaultSpec::Kind::kFile;
    return DecodeInRange(*plan, map.Sub("plan"), "plan", Range::kNonEmpty, out.plan_path,
                         issue) &&
           map.Finish();
  }
  out.kind = FaultSpec::Kind::kInline;
  uint64_t seed = 1;
  if (const DocNode* seed_node = map.Get("seed")) {
    if (!Decode(*seed_node, map.Sub("seed"), seed, issue)) {
      return false;
    }
  }
  out.inline_plan = FaultPlan(seed);
  if (windows->kind != DocNode::Kind::kList || windows->items.empty()) {
    return Fail(issue, windows->line, map.Sub("windows"), "expected a non-empty list of windows");
  }
  for (size_t i = 0; i < windows->items.size(); ++i) {
    FaultWindow window;
    std::string window_path = map.Sub("windows") + "[" + std::to_string(i) + "]";
    if (!ReadRecord(windows->items[i], window_path, kFaultWindowFields, window, issue)) {
      return false;
    }
    out.inline_plan.Add(window);
  }
  std::string error = out.inline_plan.Validate();
  if (!error.empty()) {
    return Fail(issue, windows->line, map.Sub("windows"), error);
  }
  return map.Finish();
}

void Encode(std::string& out, const FaultSpec& faults) {
  out += '{';
  switch (faults.kind) {
    case FaultSpec::Kind::kClass:
      EncodeField(out, "class", faults.class_name);
      break;
    case FaultSpec::Kind::kFile:
      EncodeField(out, "plan", faults.plan_path);
      break;
    case FaultSpec::Kind::kInline:
      EncodeField(out, "seed", faults.inline_plan.seed());
      AppendKey(out, "windows");
      out += '[';
      for (const FaultWindow& window : faults.inline_plan.windows()) {
        Separate(out);
        WriteRecord(out, kFaultWindowFields, window);
      }
      out += ']';
      break;
  }
  out += '}';
}

bool ReadRandomJob(const DocNode& node, const std::string& path, RandomJobSpec& out,
                   ScenarioParseIssue* issue) {
  MapReader map(node, path, issue);
  if (!map.ok() || !ReadFields(map, kRandomJobFields, out, issue) ||
      !ReadFields(map, kRandomJobParamsFields, out.params, issue)) {
    return false;
  }
  if (out.params.min_stages > out.params.max_stages ||
      out.params.min_vertices > out.params.max_vertices ||
      out.params.min_median_seconds > out.params.max_median_seconds) {
    return Fail(issue, node.line, path, "random job bounds must satisfy min <= max");
  }
  return map.Finish();
}

// Exactly one of `job` (a Table 2 letter) and `random`, then the entry's table.
bool ReadWorkloadEntry(const DocNode& node, const std::string& path, WorkloadEntrySpec& out,
                       ScenarioParseIssue* issue) {
  MapReader map(node, path, issue);
  if (!map.ok()) {
    return false;
  }
  const DocNode* job = map.Get("job");
  const DocNode* random = map.Get("random");
  if ((job == nullptr) == (random == nullptr)) {
    return Fail(issue, node.line, path, "entry takes exactly one of \"job\" or \"random\"");
  }
  if (job != nullptr) {
    if (!Decode(*job, map.Sub("job"), out.job.letter, issue)) {
      return false;
    }
    if (out.job.letter.size() != 1 || out.job.letter[0] < 'A' || out.job.letter[0] > 'G') {
      return Fail(issue, job->line, map.Sub("job"),
                  "unknown job \"" + out.job.letter + "\" (A..G)");
    }
  } else if (!ReadRandomJob(*random, map.Sub("random"), out.job.random.emplace(), issue)) {
    return false;
  }
  return ReadFields(map, kEntryFields, out, issue) && map.Finish();
}

void WriteWorkloadEntry(std::string& out, const WorkloadEntrySpec& entry) {
  out += '{';
  if (!entry.job.letter.empty()) {
    EncodeField(out, "job", entry.job.letter);
  } else {
    AppendKey(out, "random");
    out += '{';
    WriteFields(out, kRandomJobFields, *entry.job.random);
    WriteFields(out, kRandomJobParamsFields, entry.job.random->params);
    out += '}';
  }
  WriteFields(out, kEntryFields, entry);
  out += '}';
}

// A list under `key` whose items each parse into `out` via `read`.
template <typename T, typename Read>
bool ReadList(const DocNode& list, const char* key, std::vector<T>& out, Read read,
              ScenarioParseIssue* issue) {
  for (size_t i = 0; i < list.items.size(); ++i) {
    std::string path = std::string(key) + "[" + std::to_string(i) + "]";
    if (!read(list.items[i], path, out.emplace_back(), issue)) {
      return false;
    }
  }
  return true;
}

bool ReadScenario(const DocNode& root, ScenarioSpec& out, ScenarioParseIssue* issue) {
  MapReader map(root, "", issue);
  if (!map.ok() || !ReadFields(map, kScenarioFields, out, issue)) {
    return false;
  }
  const DocNode* workload = map.Get("workload");
  if (workload == nullptr) {
    return Fail(issue, root.line, "workload", "scenario requires a \"workload\" list");
  }
  if (workload->kind != DocNode::Kind::kList || workload->items.empty()) {
    return Fail(issue, workload->line, "workload", "workload must be a non-empty list");
  }
  if (!ReadList(*workload, "workload", out.workload, ReadWorkloadEntry, issue)) {
    return false;
  }
  if (const DocNode* phases = map.Get("phases")) {
    if (phases->kind != DocNode::Kind::kList) {
      return Fail(issue, phases->line, "phases", "phases must be a list");
    }
    auto read_phase = [](const DocNode& node, const std::string& path, PhaseSpec& phase,
                         ScenarioParseIssue* phase_issue) {
      return ReadRecord(node, path, kPhaseFields, phase, phase_issue);
    };
    if (!ReadList(*phases, "phases", out.phases, read_phase, issue)) {
      return false;
    }
  }
  if (!map.Finish()) {
    return false;
  }
  // Cross-field check: a fixed policy anywhere needs the token count.
  bool any_fixed = out.policy == PolicyKind::kFixed;
  for (const WorkloadEntrySpec& entry : out.workload) {
    any_fixed = any_fixed || (entry.policy.has_value() && *entry.policy == PolicyKind::kFixed);
  }
  if (any_fixed && !out.fixed_tokens.has_value()) {
    return Fail(issue, root.line, "fixed_tokens", "policy \"fixed\" requires \"fixed_tokens\"");
  }
  return true;
}

// Whether knob member M sets target T, a member of Config.
template <typename M, typename T, typename Config>
constexpr bool kSets = false;
template <typename V, typename Config>
constexpr bool kSets<std::optional<V> ControlSpec::*, V Config::*, Config> = true;

// Calls `on(member, target)` for each knob that sets a Config member.
template <typename Config, typename On>
void ForEachKnobOf(On on) {
  for (const ControlKnob& knob : kControlKnobs) {
    std::visit(
        [&](auto member, auto target) {
          if constexpr (kSets<decltype(member), decltype(target), Config>) {
            on(member, target);
          }
        },
        knob.member, knob.sets);
  }
}

template <typename Config>
void ApplyKnobs(const ControlSpec& spec, Config& config) {
  ForEachKnobOf<Config>([&](auto member, auto target) {
    if ((spec.*member).has_value()) {
      config.*target = *(spec.*member);
    }
  });
}

}  // namespace

bool ControlSpec::OverridesController() const {
  bool set = false;
  ForEachKnobOf<ControlLoopConfig>(
      [&](auto member, auto) { set = set || (this->*member).has_value(); });
  return set;
}

void ControlSpec::ApplyTo(ControlLoopConfig& config) const { ApplyKnobs(*this, config); }

void ControlSpec::ApplyTo(ExperimentOptions& options) const { ApplyKnobs(*this, options); }

ScenarioParseResult ParseScenarioText(const std::string& text) {
  ScenarioParseResult result;
  DocParseIssue doc_issue;
  std::optional<DocNode> root = ParseDoc(text, &doc_issue);
  if (!root.has_value()) {
    result.issue = ScenarioParseIssue{doc_issue.line, "", doc_issue.message};
    return result;
  }
  ScenarioSpec spec;
  ScenarioParseIssue issue;
  if (!ReadScenario(*root, spec, &issue)) {
    result.issue = std::move(issue);
    return result;
  }
  result.spec = std::move(spec);
  return result;
}

std::string WriteScenarioJson(const ScenarioSpec& spec) {
  std::string out = "{";
  WriteFields(out, kScenarioFields, spec);
  AppendKey(out, "workload");
  out += '[';
  for (const WorkloadEntrySpec& entry : spec.workload) {
    Separate(out);
    WriteWorkloadEntry(out, entry);
  }
  out += ']';
  if (!spec.phases.empty()) {
    AppendKey(out, "phases");
    out += '[';
    for (const PhaseSpec& phase : spec.phases) {
      Separate(out);
      WriteRecord(out, kPhaseFields, phase);
    }
    out += ']';
  }
  out += '}';
  return out;
}

std::string FormatScenarioIssue(const std::string& path, const ScenarioParseIssue& issue) {
  std::string out = path + ":" + std::to_string(issue.line) + ": " + issue.message;
  if (!issue.field.empty()) {
    out += " at field " + issue.field;
  }
  return out;
}

}  // namespace jockey
