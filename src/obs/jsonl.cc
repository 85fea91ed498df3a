#include "src/obs/jsonl.h"

#include <array>
#include <istream>
#include <ostream>
#include <utility>

#include "src/obs/json_format.h"

namespace jockey {
namespace {

// Each payload kind's field table: the whole JSONL format of a trace line after its
// "t" and "kind". A kind without a table does not compile.
template <typename Payload>
constexpr auto kPayloadFields = nullptr;

template <>
constexpr auto kPayloadFields<ControlTickEvent> = std::tuple{
    Field("job", &ControlTickEvent::job), Field("elapsed", &ControlTickEvent::elapsed_seconds),
    Field("progress", &ControlTickEvent::progress),
    Field("prediction", &ControlTickEvent::predicted_remaining_seconds),
    Field("utility", &ControlTickEvent::utility), Field("raw", &ControlTickEvent::raw_allocation),
    Field("smoothed", &ControlTickEvent::smoothed_allocation),
    Field("granted", &ControlTickEvent::granted_tokens),
    Field("model_speed", &ControlTickEvent::model_speed)};

template <>
constexpr auto kPayloadFields<PredictionLookupEvent> = std::tuple{
    Field("job", &PredictionLookupEvent::job), Field("progress", &PredictionLookupEvent::progress),
    Field("allocation", &PredictionLookupEvent::allocation),
    Field("prediction", &PredictionLookupEvent::predicted_remaining_seconds)};

template <>
constexpr auto kPayloadFields<AllocationChangeEvent> = std::tuple{
    Field("job", &AllocationChangeEvent::job), Field("from", &AllocationChangeEvent::from_tokens),
    Field("to", &AllocationChangeEvent::to_tokens)};

template <>
constexpr auto kPayloadFields<UtilityChangeEvent> = std::tuple{
    Field("job", &UtilityChangeEvent::job), Field("elapsed", &UtilityChangeEvent::elapsed_seconds)};

template <>
constexpr auto kPayloadFields<TableCacheLookupEvent> = std::tuple{
    HexField("key", &TableCacheLookupEvent::key), Field("code", &TableCacheLookupEvent::code),
    Field("bytes", &TableCacheLookupEvent::bytes)};

template <>
constexpr auto kPayloadFields<TableCacheStoreEvent> = std::tuple{
    HexField("key", &TableCacheStoreEvent::key), Field("code", &TableCacheStoreEvent::code),
    Field("bytes", &TableCacheStoreEvent::bytes)};

template <>
constexpr auto kPayloadFields<TableCacheEvictEvent> = std::tuple{
    HexField("key", &TableCacheEvictEvent::key), Field("bytes", &TableCacheEvictEvent::bytes)};

template <>
constexpr auto kPayloadFields<JobSubmitEvent> = std::tuple{
    Field("job", &JobSubmitEvent::job), Field("tokens", &JobSubmitEvent::guaranteed_tokens)};

template <>
constexpr auto kPayloadFields<JobFinishEvent> = std::tuple{
    Field("job", &JobFinishEvent::job), Field("completion", &JobFinishEvent::completion_seconds)};

template <>
constexpr auto kPayloadFields<TaskDispatchEvent> = std::tuple{
    Field("job", &TaskDispatchEvent::job), Field("stage", &TaskDispatchEvent::stage),
    Field("task", &TaskDispatchEvent::task), Field("machine", &TaskDispatchEvent::machine),
    Field("spare", &TaskDispatchEvent::spare),
    Field("speculative", &TaskDispatchEvent::speculative)};

template <>
constexpr auto kPayloadFields<TaskCompleteEvent> = std::tuple{
    Field("job", &TaskCompleteEvent::job), Field("stage", &TaskCompleteEvent::stage),
    Field("task", &TaskCompleteEvent::task), Field("spare", &TaskCompleteEvent::spare),
    Field("speculative", &TaskCompleteEvent::speculative)};

template <>
constexpr auto kPayloadFields<TaskKilledEvent> = std::tuple{
    Field("job", &TaskKilledEvent::job), Field("stage", &TaskKilledEvent::stage),
    Field("task", &TaskKilledEvent::task), Field("reason", &TaskKilledEvent::reason),
    Field("requeued", &TaskKilledEvent::requeued)};

template <>
constexpr auto kPayloadFields<SpeculativeLaunchEvent> = std::tuple{
    Field("job", &SpeculativeLaunchEvent::job), Field("stage", &SpeculativeLaunchEvent::stage),
    Field("task", &SpeculativeLaunchEvent::task)};

template <>
constexpr auto kPayloadFields<MachineFailureEvent> = std::tuple{
    Field("machine", &MachineFailureEvent::machine),
    Field("killed", &MachineFailureEvent::tasks_killed)};

template <>
constexpr auto kPayloadFields<MachineRecoverEvent> = std::tuple{
    Field("machine", &MachineRecoverEvent::machine)};

// "fault" rather than "kind": the line's "kind" field names the event.
template <>
constexpr auto kPayloadFields<FaultInjectedEvent> = std::tuple{
    Field("fault", &FaultInjectedEvent::fault), Field("window", &FaultInjectedEvent::window),
    Field("job", &FaultInjectedEvent::job), Field("magnitude", &FaultInjectedEvent::magnitude),
    Field("detail", &FaultInjectedEvent::detail), Field("detail2", &FaultInjectedEvent::detail2)};

template <>
constexpr auto kPayloadFields<DegradedDecisionEvent> = std::tuple{
    Field("job", &DegradedDecisionEvent::job), Field("mode", &DegradedDecisionEvent::mode),
    Field("elapsed", &DegradedDecisionEvent::elapsed_seconds),
    Field("report_age", &DegradedDecisionEvent::report_age_seconds),
    Field("granted", &DegradedDecisionEvent::granted_tokens),
    Field("value", &DegradedDecisionEvent::value)};

template <>
constexpr auto kPayloadFields<TaskReadyEvent> = std::tuple{
    Field("job", &TaskReadyEvent::job), Field("stage", &TaskReadyEvent::stage),
    Field("task", &TaskReadyEvent::task), Field("requeued", &TaskReadyEvent::requeued)};

template <>
constexpr auto kPayloadFields<SloStateChangeEvent> = std::tuple{
    Field("job", &SloStateChangeEvent::job), Field("from", &SloStateChangeEvent::from),
    Field("to", &SloStateChangeEvent::to), Field("elapsed", &SloStateChangeEvent::elapsed_seconds),
    Field("slack", &SloStateChangeEvent::slack_seconds)};

template <>
constexpr auto kPayloadFields<ControlDecisionCachedEvent> = std::tuple{
    Field("job", &ControlDecisionCachedEvent::job),
    Field("elapsed", &ControlDecisionCachedEvent::elapsed_seconds),
    Field("progress", &ControlDecisionCachedEvent::progress),
    Field("raw", &ControlDecisionCachedEvent::raw_allocation),
    HexField("signature", &ControlDecisionCachedEvent::signature)};

// Builds payload alternative I in place and reads its table.
template <size_t I>
bool ReadAlternative(FlatJsonFields& in, TraceEventPayload& payload) {
  using Payload = std::variant_alternative_t<I, TraceEventPayload>;
  return ReadFields<kPayloadFields<Payload>>(in, payload.emplace<I>());
}

// One reader per kind, indexed by EventKind: the kind's values are the variant's
// alternative indices (KindCoversAllVariantAlternatives pins this).
constexpr auto kPayloadReaders = []<size_t... I>(std::index_sequence<I...>) {
  return std::array{&ReadAlternative<I>...};
}(std::make_index_sequence<std::variant_size_v<TraceEventPayload>>());

// ParseTraceLine over caller-owned field storage, so a stream reader reuses it.
bool ParseTraceLineInto(std::string_view line, FlatJsonFields& fields, TraceEvent& event,
                        TraceParseIssue* issue) {
  auto fail = [issue](std::string_view field, std::string message) {
    if (issue != nullptr) {
      issue->field.clear();
      issue->field.append(field);  // appended: assigning trips GCC 12's -Wrestrict at -O3
      issue->message = std::move(message);
    }
    return false;
  };
  if (!ParseFlatJsonObject(line, fields)) {
    return fail(fields.duplicate_key, fields.ParseError());
  }
  const std::string_view* t = fields.FindBare("t");
  if (t == nullptr || !ParseJsonNumber(*t, event.time_seconds)) {
    return fail("t", "missing or non-numeric timestamp");
  }
  const std::string_view* kind = fields.FindString("kind");
  if (kind == nullptr) {
    return fail("kind", "missing or unquoted kind");
  }
  std::optional<EventKind> kind_index = EnumFromName<EventKind>(*kind);
  if (!kind_index.has_value()) {
    std::string message = "unknown kind '";
    message.append(*kind).append("'");
    return fail("kind", std::move(message));
  }
  if (!kPayloadReaders[static_cast<size_t>(*kind_index)](fields, event.payload)) {
    return fail(fields.rejected_key, "missing or malformed field");
  }
  if (const FlatJsonFields::Field* extra = fields.FirstUnread()) {
    return fail(extra->key, "key not defined for kind '" + std::string(*kind) + "'");
  }
  return true;
}

// --- Tokenizer: one pass over the line, values as views, no copies unless escaped. ---

// The "C"-locale isspace set, without the locale lookup.
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

class Tokenizer {
 public:
  Tokenizer(std::string_view line, std::string& unescaped) : s_(line), unescaped_(unescaped) {}

  void SkipSpace() {
    while (i_ < s_.size() && IsSpace(s_[i_])) {
      ++i_;
    }
  }
  bool AtEnd() const { return i_ >= s_.size(); }
  char Peek() const { return s_[i_]; }
  bool Consume(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  // A "..." string. Escapes: \n \t \r decode, any other escaped byte is itself.
  // Without a backslash the result is a view into the line; with one, the string is
  // decoded into `unescaped`, which is reserved to the line's length on first use —
  // decoded text never outgrows its source — so earlier views into it stay valid.
  bool Quoted(std::string_view& out) {
    if (!Consume('"')) {
      return false;
    }
    size_t start = i_;
    while (i_ < s_.size() && s_[i_] != '"' && s_[i_] != '\\') {
      ++i_;
    }
    if (i_ >= s_.size()) {
      return false;
    }
    if (s_[i_] == '"') {
      out = s_.substr(start, i_ - start);
      ++i_;
      return true;
    }
    if (unescaped_.capacity() < s_.size()) {
      unescaped_.reserve(s_.size());
    }
    size_t begin = unescaped_.size();
    unescaped_.append(s_.data() + start, i_ - start);
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_];
      if (c == '\\' && i_ + 1 < s_.size()) {
        c = s_[++i_];
        c = c == 'n' ? '\n' : c == 't' ? '\t' : c == 'r' ? '\r' : c;
      }
      unescaped_.push_back(c);
      ++i_;
    }
    if (i_ >= s_.size()) {
      return false;
    }
    ++i_;  // closing quote
    out = std::string_view(unescaped_.data() + begin, unescaped_.size() - begin);
    return true;
  }

  // A bare (unquoted) value: everything up to the next ',' or '}', trailing space
  // trimmed; never empty.
  bool Bare(std::string_view& out) {
    size_t start = i_;
    while (i_ < s_.size() && s_[i_] != ',' && s_[i_] != '}') {
      ++i_;
    }
    size_t end = i_;
    while (end > start && IsSpace(s_[end - 1])) {
      --end;
    }
    out = s_.substr(start, end - start);
    return !out.empty();
  }

 private:
  std::string_view s_;
  size_t i_ = 0;
  std::string& unescaped_;
};

}  // namespace

FlatJsonFields::Field* FlatJsonFields::Find(std::string_view key) {
  for (Field& field : fields) {
    if (field.key == key) {
      field.read = true;
      return &field;
    }
  }
  return nullptr;
}

const std::string_view* FlatJsonFields::FindBare(std::string_view key) {
  const Field* field = Find(key);
  return field != nullptr && !field->quoted ? &field->value : nullptr;
}

const std::string_view* FlatJsonFields::FindString(std::string_view key) {
  const Field* field = Find(key);
  return field != nullptr && field->quoted ? &field->value : nullptr;
}

const FlatJsonFields::Field* FlatJsonFields::FirstUnread() const {
  for (const Field& field : fields) {
    if (!field.read) {
      return &field;
    }
  }
  return nullptr;
}

std::string FlatJsonFields::ParseError() const {
  return duplicate_key.empty() ? "malformed JSON object"
                               : "duplicate key '" + std::string(duplicate_key) + "'";
}

bool ParseFlatJsonObject(std::string_view line, FlatJsonFields& out) {
  out.fields.clear();
  out.unescaped.clear();
  out.duplicate_key = {};
  Tokenizer tok(line, out.unescaped);
  tok.SkipSpace();
  if (!tok.Consume('{')) {
    return false;
  }
  tok.SkipSpace();
  if (tok.Consume('}')) {
    return true;
  }
  while (true) {
    std::string_view key;
    std::string_view value;
    tok.SkipSpace();
    if (!tok.Quoted(key)) {
      return false;
    }
    tok.SkipSpace();
    if (!tok.Consume(':')) {
      return false;
    }
    tok.SkipSpace();
    const bool quoted = !tok.AtEnd() && tok.Peek() == '"';
    if (!(quoted ? tok.Quoted(value) : tok.Bare(value))) {
      return false;
    }
    if (out.Find(key) != nullptr) {
      out.duplicate_key = key;
      return false;
    }
    out.fields.push_back({key, value, quoted});
    tok.SkipSpace();
    if (tok.Consume('}')) {
      return true;
    }
    if (!tok.Consume(',')) {
      return false;
    }
  }
}

void AppendJsonLine(std::string& out, const TraceEvent& event) {
  out += "{\"t\":";
  AppendJsonNumber(out, event.time_seconds);
  out += ",\"kind\":\"";
  out += EnumName(event.kind());
  out += '"';
  std::visit(
      [&out](const auto& payload) {
        AppendFields<kPayloadFields<std::decay_t<decltype(payload)>>>(out, payload);
      },
      event.payload);
  out += '}';
}

std::string ToJsonLine(const TraceEvent& event) {
  std::string out;
  AppendJsonLine(out, event);
  return out;
}

std::optional<TraceEvent> ParseTraceLine(std::string_view line, TraceParseIssue* issue) {
  FlatJsonFields fields;
  TraceEvent event;
  if (!ParseTraceLineInto(line, fields, event, issue)) {
    return std::nullopt;
  }
  return event;
}

TraceReadResult ReadJsonlTrace(std::istream& is, bool strict) {
  TraceReadResult result;
  std::string line;
  FlatJsonFields fields;
  TraceEvent event;
  TraceParseIssue issue;
  int line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    if (ParseTraceLineInto(line, fields, event, &issue)) {
      result.events.push_back(event);
      continue;
    }
    ++result.malformed_lines;
    if (!result.first_issue.has_value()) {
      issue.line_number = line_number;
      result.first_issue = std::move(issue);
    }
    if (strict) {
      break;
    }
  }
  return result;
}

void JsonlSink::OnEvent(const TraceEvent& event) {
  line_.clear();
  AppendJsonLine(line_, event);
  line_ += '\n';
  os_->write(line_.data(), static_cast<std::streamsize>(line_.size()));
}

namespace {

// One chrome://tracing record. `ph` "C" renders a counter track, "i" an instant.
void ChromeRecord(std::ostream& os, bool& first, const std::string& name, const char* ph,
                  double time_seconds, int tid, const std::string& args) {
  if (!first) {
    os << ",\n";
  }
  first = false;
  os << "{\"name\":" << JsonString(name) << ",\"ph\":\"" << ph
     << "\",\"ts\":" << JsonNumber(time_seconds * 1e6) << ",\"pid\":0,\"tid\":" << tid;
  if (ph[0] == 'i') {
    os << ",\"s\":\"t\"";
  }
  os << ",\"args\":{" << args << "}}";
}

std::string TaskArgs(int stage, int task) {
  return "\"stage\":" + std::to_string(stage) + ",\"task\":" + std::to_string(task);
}

}  // namespace

void WriteChromeTrace(std::ostream& os, const std::vector<TraceEvent>& events) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const TraceEvent& event : events) {
    double t = event.time_seconds;
    std::visit(
        [&](const auto& e) {
          using E = std::decay_t<decltype(e)>;
          if constexpr (std::is_same_v<E, ControlTickEvent>) {
            ChromeRecord(os, first, "allocation job " + std::to_string(e.job), "C", t, e.job,
                         "\"granted\":" + std::to_string(e.granted_tokens) +
                             ",\"raw\":" + JsonNumber(e.raw_allocation));
            ChromeRecord(os, first, "progress job " + std::to_string(e.job), "C", t, e.job,
                         "\"progress\":" + JsonNumber(e.progress));
          } else if constexpr (std::is_same_v<E, AllocationChangeEvent>) {
            ChromeRecord(os, first, "allocation_change", "i", t, e.job,
                         "\"from\":" + std::to_string(e.from_tokens) +
                             ",\"to\":" + std::to_string(e.to_tokens));
          } else if constexpr (std::is_same_v<E, TaskDispatchEvent>) {
            ChromeRecord(os, first, e.speculative ? "speculative_dispatch" : "task_dispatch",
                         "i", t, e.job, TaskArgs(e.stage, e.task));
          } else if constexpr (std::is_same_v<E, TaskCompleteEvent>) {
            ChromeRecord(os, first, "task_complete", "i", t, e.job, TaskArgs(e.stage, e.task));
          } else if constexpr (std::is_same_v<E, TaskKilledEvent>) {
            ChromeRecord(os, first, std::string("killed:") + KillReasonName(e.reason), "i", t,
                         e.job, TaskArgs(e.stage, e.task));
          } else if constexpr (std::is_same_v<E, SpeculativeLaunchEvent>) {
            ChromeRecord(os, first, "speculative_launch", "i", t, e.job,
                         TaskArgs(e.stage, e.task));
          } else if constexpr (std::is_same_v<E, MachineFailureEvent>) {
            ChromeRecord(os, first, "machine_failure", "i", t, 0,
                         "\"machine\":" + std::to_string(e.machine) +
                             ",\"killed\":" + std::to_string(e.tasks_killed));
          } else if constexpr (std::is_same_v<E, JobFinishEvent>) {
            ChromeRecord(os, first, "job_finish", "i", t, e.job,
                         "\"completion\":" + JsonNumber(e.completion_seconds));
          } else if constexpr (std::is_same_v<E, FaultInjectedEvent>) {
            ChromeRecord(os, first, std::string("fault:") + FaultKindName(e.fault), "i", t,
                         e.job < 0 ? 0 : e.job,
                         "\"window\":" + std::to_string(e.window) +
                             ",\"magnitude\":" + JsonNumber(e.magnitude));
          } else if constexpr (std::is_same_v<E, DegradedDecisionEvent>) {
            ChromeRecord(os, first, std::string("degraded:") + DegradeModeName(e.mode), "i", t,
                         e.job, "\"granted\":" + std::to_string(e.granted_tokens) +
                                    ",\"report_age\":" + JsonNumber(e.report_age_seconds));
          }
          // Remaining kinds (cache traffic, submit, utility changes, prediction
          // lookups, machine recovery) carry no timeline value in this view.
        },
        event.payload);
  }
  os << "\n]}\n";
}

}  // namespace jockey
