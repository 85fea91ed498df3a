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
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace jockey {

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

}  // namespace jockey

#endif  // SRC_OBS_JSON_FORMAT_H_
