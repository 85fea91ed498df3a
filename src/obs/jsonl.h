// Trace exporters and the trace reader.
//
//  * JsonlSink — streams each TraceEvent as one flat JSON object per line. The
//    format is the layer's interchange format: `jockey_cli run --trace-out` writes
//    it, `jockey_cli report` reads it back. Numbers use the shortest round-trip
//    form (json_format.h), so a seeded run re-emits byte-identical files.
//  * ParseTraceLine / ReadJsonlTrace — the inverse mapping. Every writer clause has
//    a parser clause; a round-trip test walks all event kinds.
//  * WriteChromeTrace — converts a buffered trace to the chrome://tracing JSON
//    array format (load in chrome://tracing or https://ui.perfetto.dev): per-job
//    counter tracks for the granted/raw allocation and progress, instant events for
//    scheduler activity.
//
// Line format: {"t":<seconds>,"kind":"<EventKindName>",<payload fields>} — flat,
// one level, no nesting, which is what keeps the reader small and dependency-free.

#ifndef SRC_OBS_JSONL_H_
#define SRC_OBS_JSONL_H_

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/observer.h"
#include "src/obs/trace_event.h"

namespace jockey {

// A flat one-level JSON object split into (key, value text) fields; string values
// are stored unquoted and unescaped, with a flag saying they were quoted. This is
// the one tokenizer under every flat-JSONL reader — traces here, fault plans
// (fault_plan.cc) and time series (timeseries.cc) — so there is a single dialect,
// and a strict one: a key appears at most once, numbers and booleans must be bare
// and strings quoted, exactly as the writers emit them. Keys and values are views
// into the parsed line, or into `unescaped` for the rare string holding a
// backslash escape: they stay valid while that line does and until the next parse
// into the same object. Reuse one object across lines to parse without allocating.
struct FlatJsonFields {
  struct Field {
    std::string_view key;
    std::string_view value;
    bool quoted = false;
  };
  std::vector<Field> fields;
  std::string unescaped;  // backing storage for escaped strings, reused across lines
  // After a parse that failed on a repeated key: that key. Empty otherwise.
  std::string_view duplicate_key;

  // The field stored under `key`, or nullptr.
  const Field* Find(std::string_view key) const;
  // The value of a number or boolean field; nullptr if absent or quoted.
  const std::string_view* FindBare(std::string_view key) const;
  // The value of a string field (a kind, an enumerator name, a hex key); nullptr if
  // absent or bare.
  const std::string_view* FindString(std::string_view key) const;
  // Why the last parse failed: "duplicate key 'k'" or "malformed JSON object".
  std::string ParseError() const;
};

// Parses one `{"k":v,...}` line into `out`, replacing its previous contents.
// Returns false on malformed input or a repeated key (named in `duplicate_key`).
bool ParseFlatJsonObject(std::string_view line, FlatJsonFields& out);

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

// Inverse of ToJsonLine. Returns nullopt for malformed lines or unknown kinds; when
// `issue` is non-null it is filled with the offending field and message.
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
