// Shared deterministic JSON number / string codec for the observability exporters
// (metrics JSON, JSONL traces, time series, fault plans) and their readers. One
// formatting routine everywhere is what makes "same run, same bytes" hold across the
// whole layer; one set of strict number readers is what makes "anything a reader
// accepts re-emits canonical bytes" hold across every flat-JSONL reader.
//
// Everything here is built on <charconv>: std::to_chars / std::from_chars are
// locale-independent, allocation-free, and specified to match the C library's
// printf and decimal-to-double conversion in the "C" locale, so the bytes are
// those the earlier printf-based form produced.

#ifndef SRC_OBS_JSON_FORMAT_H_
#define SRC_OBS_JSON_FORMAT_H_

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace jockey {

struct FlatJsonFields;  // jsonl.h

// Appends the shortest %g form that round-trips: tries increasing precision
// (%.15g, %.16g, %.17g, via std::to_chars) and keeps the first that parses back
// exactly (via std::from_chars). Pure function of the bits, so identical values
// always format identically. Non-finite values (never produced by the simulators,
// but defensively) render as null.
void AppendJsonNumber(std::string& out, double value);

// AppendJsonNumber into a fresh string.
std::string JsonNumber(double value);

// Escapes the characters JSON requires ('"', '\\', control bytes); the event model
// emits no strings today, but the metrics registry exports user-chosen names.
std::string JsonString(const std::string& s);

// Strict inverse of AppendJsonNumber for one value token: the whole of `text` must
// be a finite decimal number (no leading '+', no hex, no inf/nan, nothing after it).
bool ParseJsonNumber(std::string_view text, double& out);

// Strict integer field reader: the whole of `text` must be a decimal integer that
// fits T — no fraction, no exponent, no leading '+', and no '-' for unsigned T.
template <typename T>
bool ParseJsonInt(std::string_view text, T& out) {
  static_assert(std::is_integral_v<T>);
  T value{};
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    return false;
  }
  out = value;
  return true;
}

// One field of a flat JSONL record, one canonical spelling per value type: the codec
// halves behind jsonl.h's field tables (AppendFields / ReadFields). They live here,
// apart from the tables that call them, so each stays one out-of-line copy instead of
// being inlined at every field of every table. Each Append*Field writes
// `,"key":value`: numbers, integers and booleans bare; hex keys (16 lowercase digits)
// and enumerator names quoted. Each Read*Field reads `key` from `in` into `out`,
// accepting exactly that spelling; when the field is malformed, or absent and not
// `optional`, it sets `in.rejected_key` and returns false.
void AppendNumberField(std::string& out, std::string_view key, double value);
void AppendIntField(std::string& out, std::string_view key, int64_t value);
void AppendUintField(std::string& out, std::string_view key, uint64_t value);
void AppendBoolField(std::string& out, std::string_view key, bool value);
void AppendHexField(std::string& out, std::string_view key, uint64_t value);
void AppendNameField(std::string& out, std::string_view key, std::string_view name);
bool ReadNumberField(FlatJsonFields& in, std::string_view key, bool optional, double& out);
bool ReadIntField(FlatJsonFields& in, std::string_view key, bool optional, int& out);
bool ReadIntField(FlatJsonFields& in, std::string_view key, bool optional, int64_t& out);
bool ReadIntField(FlatJsonFields& in, std::string_view key, bool optional, uint64_t& out);
bool ReadBoolField(FlatJsonFields& in, std::string_view key, bool optional, bool& out);
bool ReadHexField(FlatJsonFields& in, std::string_view key, bool optional, uint64_t& out);
// `names` is an enum's wire-name array; `index` receives the position of the match.
bool ReadNameField(FlatJsonFields& in, std::string_view key, bool optional,
                   const std::string_view* names, size_t count, size_t& index);

}  // namespace jockey

#endif  // SRC_OBS_JSON_FORMAT_H_
