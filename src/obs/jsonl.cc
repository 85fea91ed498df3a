#include "src/obs/jsonl.h"

#include <charconv>
#include <istream>
#include <ostream>
#include <unordered_map>
#include <utility>

#include "src/obs/json_format.h"

namespace jockey {
namespace {

// --- Writer: appends `,"key":value` fields straight into the caller's buffer. ---

void AppendKey(std::string& out, std::string_view key) {
  out += ",\"";
  out += key;
  out += "\":";
}

void AppendNum(std::string& out, std::string_view key, double value) {
  AppendKey(out, key);
  AppendJsonNumber(out, value);
}

void AppendInt(std::string& out, std::string_view key, int64_t value) {
  AppendKey(out, key);
  char buffer[24];
  out.append(buffer, std::to_chars(buffer, buffer + sizeof(buffer), value).ptr);
}

void AppendUint(std::string& out, std::string_view key, uint64_t value) {
  AppendKey(out, key);
  char buffer[24];
  out.append(buffer, std::to_chars(buffer, buffer + sizeof(buffer), value).ptr);
}

void AppendBool(std::string& out, std::string_view key, bool value) {
  AppendKey(out, key);
  out += value ? "true" : "false";
}

// Enumerator names are plain identifiers: nothing to escape.
void AppendName(std::string& out, std::string_view key, const char* value) {
  AppendKey(out, key);
  out += '"';
  out += value;
  out += '"';
}

// 64-bit cache keys exceed the exactly-representable double range, so they travel
// as fixed-width lowercase hex strings.
void AppendHex(std::string& out, std::string_view key, uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  AppendKey(out, key);
  char buffer[18];
  buffer[0] = '"';
  for (int i = 16; i >= 1; --i, value >>= 4) {
    buffer[i] = kDigits[value & 0xf];
  }
  buffer[17] = '"';
  out.append(buffer, sizeof(buffer));
}

struct LineWriter {
  std::string* out;

  void operator()(const ControlTickEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendNum(*out, "elapsed", e.elapsed_seconds);
    AppendNum(*out, "progress", e.progress);
    AppendNum(*out, "prediction", e.predicted_remaining_seconds);
    AppendNum(*out, "utility", e.utility);
    AppendNum(*out, "raw", e.raw_allocation);
    AppendNum(*out, "smoothed", e.smoothed_allocation);
    AppendInt(*out, "granted", e.granted_tokens);
    AppendNum(*out, "model_speed", e.model_speed);
  }
  void operator()(const PredictionLookupEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendNum(*out, "progress", e.progress);
    AppendNum(*out, "allocation", e.allocation);
    AppendNum(*out, "prediction", e.predicted_remaining_seconds);
  }
  void operator()(const AllocationChangeEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendInt(*out, "from", e.from_tokens);
    AppendInt(*out, "to", e.to_tokens);
  }
  void operator()(const UtilityChangeEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendNum(*out, "elapsed", e.elapsed_seconds);
  }
  void operator()(const TableCacheLookupEvent& e) const {
    AppendHex(*out, "key", e.key);
    AppendName(*out, "code", CacheCodeName(e.code));
    AppendUint(*out, "bytes", e.bytes);
  }
  void operator()(const TableCacheStoreEvent& e) const {
    AppendHex(*out, "key", e.key);
    AppendName(*out, "code", CacheCodeName(e.code));
    AppendUint(*out, "bytes", e.bytes);
  }
  void operator()(const TableCacheEvictEvent& e) const {
    AppendHex(*out, "key", e.key);
    AppendUint(*out, "bytes", e.bytes);
  }
  void operator()(const JobSubmitEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendInt(*out, "tokens", e.guaranteed_tokens);
  }
  void operator()(const JobFinishEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendNum(*out, "completion", e.completion_seconds);
  }
  void operator()(const TaskDispatchEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendInt(*out, "stage", e.stage);
    AppendInt(*out, "task", e.task);
    AppendInt(*out, "machine", e.machine);
    AppendBool(*out, "spare", e.spare);
    AppendBool(*out, "speculative", e.speculative);
  }
  void operator()(const TaskCompleteEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendInt(*out, "stage", e.stage);
    AppendInt(*out, "task", e.task);
    AppendBool(*out, "spare", e.spare);
    AppendBool(*out, "speculative", e.speculative);
  }
  void operator()(const TaskKilledEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendInt(*out, "stage", e.stage);
    AppendInt(*out, "task", e.task);
    AppendName(*out, "reason", KillReasonName(e.reason));
    AppendBool(*out, "requeued", e.requeued);
  }
  void operator()(const SpeculativeLaunchEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendInt(*out, "stage", e.stage);
    AppendInt(*out, "task", e.task);
  }
  void operator()(const MachineFailureEvent& e) const {
    AppendInt(*out, "machine", e.machine);
    AppendInt(*out, "killed", e.tasks_killed);
  }
  void operator()(const MachineRecoverEvent& e) const { AppendInt(*out, "machine", e.machine); }
  void operator()(const FaultInjectedEvent& e) const {
    // "fault" rather than "kind": the line's "kind" field names the event.
    AppendName(*out, "fault", FaultKindName(e.fault));
    AppendInt(*out, "window", e.window);
    AppendInt(*out, "job", e.job);
    AppendNum(*out, "magnitude", e.magnitude);
    AppendNum(*out, "detail", e.detail);
    AppendNum(*out, "detail2", e.detail2);
  }
  void operator()(const DegradedDecisionEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendName(*out, "mode", DegradeModeName(e.mode));
    AppendNum(*out, "elapsed", e.elapsed_seconds);
    AppendNum(*out, "report_age", e.report_age_seconds);
    AppendInt(*out, "granted", e.granted_tokens);
    AppendNum(*out, "value", e.value);
  }
  void operator()(const TaskReadyEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendInt(*out, "stage", e.stage);
    AppendInt(*out, "task", e.task);
    AppendBool(*out, "requeued", e.requeued);
  }
  void operator()(const SloStateChangeEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendName(*out, "from", SloStateName(e.from));
    AppendName(*out, "to", SloStateName(e.to));
    AppendNum(*out, "elapsed", e.elapsed_seconds);
    AppendNum(*out, "slack", e.slack_seconds);
  }
  void operator()(const ControlDecisionCachedEvent& e) const {
    AppendInt(*out, "job", e.job);
    AppendNum(*out, "elapsed", e.elapsed_seconds);
    AppendNum(*out, "progress", e.progress);
    AppendInt(*out, "raw", e.raw_allocation);
    AppendHex(*out, "signature", e.signature);
  }
};

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

// --- Reader: typed field access over one tokenized trace line. ---

// Reads typed fields and records the first one that was missing or malformed —
// what strict mode reports. The && chains in the payload readers short-circuit, so
// the first failing read is the one whose key lands here. The accessors are
// defined out of line: twenty payload readers call them, and one copy each keeps
// the reader compact.
class FieldReader {
 public:
  explicit FieldReader(const FlatJsonFields& fields) : fields_(fields) {}

  const char* failed() const { return failed_; }

  bool Num(const char* key, double& out);
  bool Int(const char* key, int& out);
  bool Uint(const char* key, uint64_t& out);
  bool Bool(const char* key, bool& out);
  // Exactly the 16 lowercase hex digits AppendHex emits.
  bool Hex(const char* key, uint64_t& out);
  // One of the enumerators 0..last, by name.
  template <typename E>
  bool Enum(const char* key, E& out, const char* (*name)(E), E last);

 private:
  bool Miss(const char* key);

  const FlatJsonFields& fields_;
  const char* failed_ = nullptr;
};

bool FieldReader::Miss(const char* key) {
  if (failed_ == nullptr) {
    failed_ = key;
  }
  return false;
}

bool FieldReader::Num(const char* key, double& out) {
  const std::string_view* v = fields_.FindBare(key);
  return (v != nullptr && ParseJsonNumber(*v, out)) || Miss(key);
}

bool FieldReader::Int(const char* key, int& out) {
  const std::string_view* v = fields_.FindBare(key);
  return (v != nullptr && ParseJsonInt(*v, out)) || Miss(key);
}

bool FieldReader::Uint(const char* key, uint64_t& out) {
  const std::string_view* v = fields_.FindBare(key);
  return (v != nullptr && ParseJsonInt(*v, out)) || Miss(key);
}

bool FieldReader::Bool(const char* key, bool& out) {
  const std::string_view* v = fields_.FindBare(key);
  if (v != nullptr && (*v == "true" || *v == "false")) {
    out = *v == "true";
    return true;
  }
  return Miss(key);
}

bool FieldReader::Hex(const char* key, uint64_t& out) {
  const std::string_view* v = fields_.FindString(key);
  if (v == nullptr || v->size() != 16) {
    return Miss(key);
  }
  uint64_t value = 0;
  for (char c : *v) {
    int digit = c >= '0' && c <= '9' ? c - '0' : c >= 'a' && c <= 'f' ? c - 'a' + 10 : -1;
    if (digit < 0) {
      return Miss(key);
    }
    value = value << 4 | static_cast<uint64_t>(digit);
  }
  out = value;
  return true;
}

template <typename E>
bool FieldReader::Enum(const char* key, E& out, const char* (*name)(E), E last) {
  const std::string_view* v = fields_.FindString(key);
  if (v != nullptr) {
    for (int i = 0; i <= static_cast<int>(last); ++i) {
      if (*v == name(static_cast<E>(i))) {
        out = static_cast<E>(i);
        return true;
      }
    }
  }
  return Miss(key);
}

bool Read(FieldReader& r, ControlTickEvent& e) {
  return r.Int("job", e.job) && r.Num("elapsed", e.elapsed_seconds) &&
         r.Num("progress", e.progress) && r.Num("prediction", e.predicted_remaining_seconds) &&
         r.Num("utility", e.utility) && r.Num("raw", e.raw_allocation) &&
         r.Num("smoothed", e.smoothed_allocation) && r.Int("granted", e.granted_tokens) &&
         r.Num("model_speed", e.model_speed);
}
bool Read(FieldReader& r, PredictionLookupEvent& e) {
  return r.Int("job", e.job) && r.Num("progress", e.progress) &&
         r.Num("allocation", e.allocation) && r.Num("prediction", e.predicted_remaining_seconds);
}
bool Read(FieldReader& r, AllocationChangeEvent& e) {
  return r.Int("job", e.job) && r.Int("from", e.from_tokens) && r.Int("to", e.to_tokens);
}
bool Read(FieldReader& r, UtilityChangeEvent& e) {
  return r.Int("job", e.job) && r.Num("elapsed", e.elapsed_seconds);
}
bool Read(FieldReader& r, TableCacheLookupEvent& e) {
  return r.Hex("key", e.key) && r.Enum("code", e.code, CacheCodeName, CacheCode::kDisabled) &&
         r.Uint("bytes", e.bytes);
}
bool Read(FieldReader& r, TableCacheStoreEvent& e) {
  return r.Hex("key", e.key) && r.Enum("code", e.code, CacheCodeName, CacheCode::kDisabled) &&
         r.Uint("bytes", e.bytes);
}
bool Read(FieldReader& r, TableCacheEvictEvent& e) {
  return r.Hex("key", e.key) && r.Uint("bytes", e.bytes);
}
bool Read(FieldReader& r, JobSubmitEvent& e) {
  return r.Int("job", e.job) && r.Int("tokens", e.guaranteed_tokens);
}
bool Read(FieldReader& r, JobFinishEvent& e) {
  return r.Int("job", e.job) && r.Num("completion", e.completion_seconds);
}
bool Read(FieldReader& r, TaskDispatchEvent& e) {
  return r.Int("job", e.job) && r.Int("stage", e.stage) && r.Int("task", e.task) &&
         r.Int("machine", e.machine) && r.Bool("spare", e.spare) &&
         r.Bool("speculative", e.speculative);
}
bool Read(FieldReader& r, TaskCompleteEvent& e) {
  return r.Int("job", e.job) && r.Int("stage", e.stage) && r.Int("task", e.task) &&
         r.Bool("spare", e.spare) && r.Bool("speculative", e.speculative);
}
bool Read(FieldReader& r, TaskKilledEvent& e) {
  return r.Int("job", e.job) && r.Int("stage", e.stage) && r.Int("task", e.task) &&
         r.Enum("reason", e.reason, KillReasonName, KillReason::kMachineFailure) &&
         r.Bool("requeued", e.requeued);
}
bool Read(FieldReader& r, SpeculativeLaunchEvent& e) {
  return r.Int("job", e.job) && r.Int("stage", e.stage) && r.Int("task", e.task);
}
bool Read(FieldReader& r, MachineFailureEvent& e) {
  return r.Int("machine", e.machine) && r.Int("killed", e.tasks_killed);
}
bool Read(FieldReader& r, MachineRecoverEvent& e) { return r.Int("machine", e.machine); }
bool Read(FieldReader& r, FaultInjectedEvent& e) {
  return r.Enum("fault", e.fault, FaultKindName, FaultKind::kAdversarialSpike) &&
         r.Int("window", e.window) && r.Int("job", e.job) && r.Num("magnitude", e.magnitude) &&
         r.Num("detail", e.detail) && r.Num("detail2", e.detail2);
}
bool Read(FieldReader& r, DegradedDecisionEvent& e) {
  return r.Int("job", e.job) &&
         r.Enum("mode", e.mode, DegradeModeName, DegradeMode::kStragglerEscalation) &&
         r.Num("elapsed", e.elapsed_seconds) && r.Num("report_age", e.report_age_seconds) &&
         r.Int("granted", e.granted_tokens) && r.Num("value", e.value);
}
bool Read(FieldReader& r, TaskReadyEvent& e) {
  return r.Int("job", e.job) && r.Int("stage", e.stage) && r.Int("task", e.task) &&
         r.Bool("requeued", e.requeued);
}
bool Read(FieldReader& r, SloStateChangeEvent& e) {
  return r.Int("job", e.job) && r.Enum("from", e.from, SloStateName, SloState::kMissed) &&
         r.Enum("to", e.to, SloStateName, SloState::kMissed) &&
         r.Num("elapsed", e.elapsed_seconds) && r.Num("slack", e.slack_seconds);
}
bool Read(FieldReader& r, ControlDecisionCachedEvent& e) {
  return r.Int("job", e.job) && r.Num("elapsed", e.elapsed_seconds) &&
         r.Num("progress", e.progress) && r.Int("raw", e.raw_allocation) &&
         r.Hex("signature", e.signature);
}

using PayloadReader = bool (*)(FieldReader&, TraceEventPayload&);

// Builds payload alternative I in place and reads its fields.
template <size_t I>
bool ReadAlternative(FieldReader& r, TraceEventPayload& payload) {
  return Read(r, payload.emplace<I>());
}

// The kind dispatch table: event-kind name -> payload reader. EventKind's values are
// the variant's alternative indices (KindCoversAllVariantAlternatives pins this).
const std::unordered_map<std::string_view, PayloadReader>& PayloadReaders() {
  static const std::unordered_map<std::string_view, PayloadReader> readers =
      []<size_t... I>(std::index_sequence<I...>) {
        return std::unordered_map<std::string_view, PayloadReader>{
            {EventKindName(static_cast<EventKind>(I)), &ReadAlternative<I>}...};
      }(std::make_index_sequence<std::variant_size_v<TraceEventPayload>>());
  return readers;
}

// ParseTraceLine over caller-owned field storage, so a stream reader reuses it.
bool ParseTraceLineInto(std::string_view line, FlatJsonFields& fields, TraceEvent& event,
                        TraceParseIssue* issue) {
  auto fail = [issue](std::string_view field, std::string message) {
    if (issue != nullptr) {
      issue->field = field;
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
  auto reader = PayloadReaders().find(*kind);
  if (reader == PayloadReaders().end()) {
    return fail("kind", "unknown kind '" + std::string(*kind) + "'");
  }
  FieldReader r(fields);
  if (!reader->second(r, event.payload)) {
    return fail(r.failed(), "missing or malformed field");
  }
  return true;
}

}  // namespace

const FlatJsonFields::Field* FlatJsonFields::Find(std::string_view key) const {
  for (const Field& field : fields) {
    if (field.key == key) {
      return &field;
    }
  }
  return nullptr;
}

const std::string_view* FlatJsonFields::FindBare(std::string_view key) const {
  const Field* field = Find(key);
  return field != nullptr && !field->quoted ? &field->value : nullptr;
}

const std::string_view* FlatJsonFields::FindString(std::string_view key) const {
  const Field* field = Find(key);
  return field != nullptr && field->quoted ? &field->value : nullptr;
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
  out += EventKindName(event.kind());
  out += '"';
  std::visit(LineWriter{&out}, event.payload);
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
