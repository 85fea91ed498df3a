// The flat JSONL dialect, the record schemas written in it, and the trace codec.
//
//  * FlatJsonFields / ParseFlatJsonObject — the one tokenizer under every flat-JSONL
//    reader: traces here, fault plans (fault_plan.cc) and time series
//    (timeseries.cc).
//  * FieldSchema tables — every record's wire format, written down once. One table
//    per record drives both its writer (AppendFields) and its strict reader
//    (ReadFields), so the two cannot drift apart.
//  * JsonlSink — streams each TraceEvent as one flat JSON object per line. The
//    format is the layer's interchange format: `jockey_cli run --trace-out` writes
//    it, `jockey_cli report` reads it back. Numbers use the shortest round-trip
//    form (json_format.h), so a seeded run re-emits byte-identical files.
//  * ParseTraceLine / ReadJsonlTrace — the inverse mapping, through the same
//    per-kind tables (jsonl.cc's kPayloadFields); a round-trip test walks all kinds.
//  * WriteChromeTrace — converts a buffered trace to the chrome://tracing JSON
//    array format (load in chrome://tracing or https://ui.perfetto.dev): per-job
//    counter tracks for the granted/raw allocation and progress, instant events for
//    scheduler activity. A lossy view with its own record names, not a
//    serialization, so it does not use the tables.
//
// Line format: {"t":<seconds>,"kind":"<EventKindName>",<payload fields>} — flat,
// one level, no nesting, which is what keeps the reader small and dependency-free.

#ifndef SRC_OBS_JSONL_H_
#define SRC_OBS_JSONL_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/obs/json_format.h"
#include "src/obs/observer.h"
#include "src/obs/trace_event.h"

namespace jockey {

// A flat one-level JSON object split into (key, value text) fields; string values
// are stored unquoted and unescaped, with a flag saying they were quoted. This is
// the one tokenizer under every flat-JSONL reader, so there is a single dialect,
// and a strict one: a key appears at most once, numbers and booleans must be bare
// and strings quoted, exactly as the writers emit them. Keys and values are views
// into the parsed line, or into `unescaped` for the rare string holding a
// backslash escape: they stay valid while that line does and until the next parse
// into the same object. Reuse one object across lines to parse without allocating.
//
// Every lookup marks the field it finds as read. Once a reader has looked up every
// key its record defines, FirstUnread() is a key the record does not define: the
// check that makes "anything a reader accepts re-writes to the same bytes" hold.
struct FlatJsonFields {
  struct Field {
    std::string_view key;
    std::string_view value;
    bool quoted = false;
    bool read = false;  // looked up since the parse
  };
  std::vector<Field> fields;
  std::string unescaped;  // backing storage for escaped strings, reused across lines
  // After a parse that failed on a repeated key: that key. Empty otherwise.
  std::string_view duplicate_key;
  // After a ReadFields that failed: the key of the field it rejected.
  std::string_view rejected_key;

  // The field stored under `key`, or nullptr.
  Field* Find(std::string_view key);
  // The value of a number or boolean field; nullptr if absent or quoted.
  const std::string_view* FindBare(std::string_view key);
  // The value of a string field (a kind, an enumerator name, a hex key); nullptr if
  // absent or bare.
  const std::string_view* FindString(std::string_view key);
  // The first field no lookup has read since the parse, or nullptr.
  const Field* FirstUnread() const;
  // Why the last parse failed: "duplicate key 'k'" or "malformed JSON object".
  std::string ParseError() const;
};

// Parses one `{"k":v,...}` line into `out`, replacing its previous contents.
// Returns false on malformed input or a repeated key (named in `duplicate_key`).
bool ParseFlatJsonObject(std::string_view line, FlatJsonFields& out);

// --- Record schemas ---

// A record's field table is a constexpr std::tuple of FieldSchema descriptors, each
// a key, a member pointer and a codec. AppendFields writes the fields in table
// order; ReadFields reads every one back. Both take the table as a template
// argument and expand it with a fold, so each field compiles to one call of an
// out-of-line codec half with its key and member offset as constants: the writers
// and strict readers stay straight-line code, and no table exists at run time.
// An enum member's type needs a WireNames() overload in its namespace
// (trace_event.h).
//
// The keys that select the table — a line's "kind", and a trace's "t" — are the
// caller's. Having read them and the table, the caller rejects the line if
// FirstUnread() finds a key anyway: no table lists it.

// How a member is spelled on the wire, one canonical form each.
enum class Codec {
  kNumber,  // double: AppendJsonNumber's shortest round-trip form, bare
  kInt,     // any integer type: decimal, bare; an unsigned member rejects '-'
  kBool,    // true / false, bare
  kHex,     // uint64_t as 16 lowercase hex digits, quoted: 64-bit keys exceed a double
  kEnum,    // the enumerator's wire name (EnumName), quoted
};

template <Codec C, typename Record, typename T>
struct FieldSchema {
  static constexpr Codec codec = C;
  using type = T;
  std::string_view key;
  T Record::*member;
  // An optional key may be absent when read, and the member keeps its value; the
  // writer always emits it.
  bool optional;
};

inline constexpr bool kOptional = true;

// A descriptor whose codec follows from the member type: enum, bool, floating point
// or integer.
template <typename Record, typename T>
constexpr auto Field(std::string_view key, T Record::*member, bool optional = false) {
  constexpr Codec codec = std::is_enum_v<T>             ? Codec::kEnum
                          : std::is_same_v<T, bool>     ? Codec::kBool
                          : std::is_floating_point_v<T> ? Codec::kNumber
                                                        : Codec::kInt;
  return FieldSchema<codec, Record, T>{key, member, optional};
}

template <typename Record>
constexpr auto HexField(std::string_view key, uint64_t Record::*member) {
  return FieldSchema<Codec::kHex, Record, uint64_t>{key, member, false};
}

// Field I of kTable: appends `,"key":value` from `record`.
template <const auto& kTable, size_t I, typename Record>
void AppendField(std::string& out, const Record& record) {
  using Schema = std::tuple_element_t<I, std::remove_cvref_t<decltype(kTable)>>;
  constexpr std::string_view key = std::get<I>(kTable).key;
  const auto& value = record.*std::get<I>(kTable).member;
  if constexpr (Schema::codec == Codec::kNumber) {
    AppendNumberField(out, key, value);
  } else if constexpr (Schema::codec == Codec::kInt && std::is_signed_v<typename Schema::type>) {
    AppendIntField(out, key, value);
  } else if constexpr (Schema::codec == Codec::kInt) {
    AppendUintField(out, key, value);
  } else if constexpr (Schema::codec == Codec::kBool) {
    AppendBoolField(out, key, value);
  } else if constexpr (Schema::codec == Codec::kHex) {
    AppendHexField(out, key, value);
  } else {
    AppendNameField(out, key, EnumName(value));
  }
}

// Field I of kTable: reads it from `in` into `record`.
template <const auto& kTable, size_t I, typename Record>
bool ReadField(FlatJsonFields& in, Record& record) {
  using Schema = std::tuple_element_t<I, std::remove_cvref_t<decltype(kTable)>>;
  constexpr std::string_view key = std::get<I>(kTable).key;
  constexpr bool optional = std::get<I>(kTable).optional;
  auto& value = record.*std::get<I>(kTable).member;
  if constexpr (Schema::codec == Codec::kNumber) {
    return ReadNumberField(in, key, optional, value);
  } else if constexpr (Schema::codec == Codec::kInt) {
    return ReadIntField(in, key, optional, value);
  } else if constexpr (Schema::codec == Codec::kBool) {
    return ReadBoolField(in, key, optional, value);
  } else if constexpr (Schema::codec == Codec::kHex) {
    return ReadHexField(in, key, optional, value);
  } else {
    const auto& names = WireNames(value);
    auto index = static_cast<size_t>(value);
    const bool ok = ReadNameField(in, key, optional, names, std::size(names), index);
    value = static_cast<typename Schema::type>(index);
    return ok;
  }
}

template <const auto& kTable>
constexpr auto kFieldIndices =
    std::make_index_sequence<std::tuple_size_v<std::remove_cvref_t<decltype(kTable)>>>();

// Appends `,"key":value` for every field of kTable, in table order.
template <const auto& kTable, typename Record>
void AppendFields(std::string& out, const Record& record) {
  [&]<size_t... I>(std::index_sequence<I...>) {
    (AppendField<kTable, I>(out, record), ...);
  }(kFieldIndices<kTable>);
}

// Reads every field of kTable into `record`, in table order. Stops at the first
// field that is malformed, or absent and not optional: returns false with its key in
// `in.rejected_key`.
template <const auto& kTable, typename Record>
bool ReadFields(FlatJsonFields& in, Record& record) {
  return [&]<size_t... I>(std::index_sequence<I...>) {
    return (ReadField<kTable, I>(in, record) && ...);
  }(kFieldIndices<kTable>);
}

// Appends one line, no trailing newline: the writer behind every trace sink.
void AppendJsonLine(std::string& out, const TraceEvent& event);

// AppendJsonLine into a fresh string.
std::string ToJsonLine(const TraceEvent& event);

// Where and why a line failed to parse: the 1-based line number (0 when parsing a
// bare string outside a stream), the first offending field ("" when the JSON object
// itself is malformed), and a human-readable message.
struct TraceParseIssue {
  int line_number = 0;
  std::string field;
  std::string message;
};

// Inverse of ToJsonLine. Returns nullopt for malformed lines, unknown kinds and keys
// the kind does not define; when `issue` is non-null it is filled with the offending
// field and message.
std::optional<TraceEvent> ParseTraceLine(std::string_view line,
                                         TraceParseIssue* issue = nullptr);

struct TraceReadResult {
  std::vector<TraceEvent> events;
  int malformed_lines = 0;  // non-empty lines that failed to parse
  // The first malformed line's diagnosis (set whenever malformed_lines > 0).
  std::optional<TraceParseIssue> first_issue;
};

// Reads a JSONL trace. Lenient mode (default) skips malformed lines and counts
// them; strict mode stops at the first malformed line, leaving its line number and
// offending field in `first_issue` — for pipelines that must not silently analyze a
// truncated or hand-edited trace.
TraceReadResult ReadJsonlTrace(std::istream& is, bool strict = false);

class JsonlSink final : public ObserverSink {
 public:
  // The stream must outlive the sink; the sink never seeks, only appends.
  explicit JsonlSink(std::ostream& os) : os_(&os) {}
  void OnEvent(const TraceEvent& event) override;

 private:
  std::ostream* os_;
  std::string line_;  // reused formatting buffer
};

void WriteChromeTrace(std::ostream& os, const std::vector<TraceEvent>& events);

}  // namespace jockey

#endif  // SRC_OBS_JSONL_H_
