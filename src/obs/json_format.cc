#include "src/obs/json_format.h"

#include <cmath>

#include "src/obs/jsonl.h"

namespace jockey {

void AppendJsonNumber(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buffer[32];
  char* end = buffer;
  for (int precision = 15; precision <= 17; ++precision) {
    end = std::to_chars(buffer, buffer + sizeof(buffer), value, std::chars_format::general,
                        precision)
              .ptr;
    double parsed = 0.0;
    std::from_chars(buffer, end, parsed);
    if (parsed == value) {
      break;
    }
  }
  out.append(buffer, end);
}

std::string JsonNumber(double value) {
  std::string out;
  AppendJsonNumber(out, value);
  return out;
}

std::string JsonString(const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out.push_back(kHex[(c >> 4) & 0xf]);
          out.push_back(kHex[c & 0xf]);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

bool ParseJsonNumber(std::string_view text, double& out) {
  double value = 0.0;
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() || !std::isfinite(value)) {
    return false;
  }
  out = value;
  return true;
}

namespace {

void AppendKey(std::string& out, std::string_view key) {
  out += ",\"";
  out += key;
  out += "\":";
}

template <typename T>
void AppendDecimal(std::string& out, std::string_view key, T value) {
  AppendKey(out, key);
  char buffer[24];
  out.append(buffer, std::to_chars(buffer, buffer + sizeof(buffer), value).ptr);
}

// The field under `key` parsed by `parse`, which sees only values of the right
// quoting; an absent field passes only when optional.
template <typename Parse>
bool ReadValue(FlatJsonFields& in, std::string_view key, bool optional, bool quoted,
               Parse parse) {
  const FlatJsonFields::Field* field = in.Find(key);
  if (field == nullptr ? optional : field->quoted == quoted && parse(field->value)) {
    return true;
  }
  in.rejected_key = key;
  return false;
}

}  // namespace

void AppendNumberField(std::string& out, std::string_view key, double value) {
  AppendKey(out, key);
  AppendJsonNumber(out, value);
}

void AppendIntField(std::string& out, std::string_view key, int64_t value) {
  AppendDecimal(out, key, value);
}

void AppendUintField(std::string& out, std::string_view key, uint64_t value) {
  AppendDecimal(out, key, value);
}

void AppendBoolField(std::string& out, std::string_view key, bool value) {
  AppendKey(out, key);
  out += value ? "true" : "false";
}

void AppendHexField(std::string& out, std::string_view key, uint64_t value) {
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

// Enumerator names are plain identifiers: nothing to escape.
void AppendNameField(std::string& out, std::string_view key, std::string_view name) {
  AppendKey(out, key);
  out += '"';
  out += name;
  out += '"';
}

bool ReadNumberField(FlatJsonFields& in, std::string_view key, bool optional, double& out) {
  return ReadValue(in, key, optional, false,
                   [&](std::string_view v) { return ParseJsonNumber(v, out); });
}

bool ReadIntField(FlatJsonFields& in, std::string_view key, bool optional, int& out) {
  return ReadValue(in, key, optional, false,
                   [&](std::string_view v) { return ParseJsonInt(v, out); });
}

bool ReadIntField(FlatJsonFields& in, std::string_view key, bool optional, int64_t& out) {
  return ReadValue(in, key, optional, false,
                   [&](std::string_view v) { return ParseJsonInt(v, out); });
}

bool ReadIntField(FlatJsonFields& in, std::string_view key, bool optional, uint64_t& out) {
  return ReadValue(in, key, optional, false,
                   [&](std::string_view v) { return ParseJsonInt(v, out); });
}

bool ReadBoolField(FlatJsonFields& in, std::string_view key, bool optional, bool& out) {
  return ReadValue(in, key, optional, false, [&](std::string_view v) {
    if (v != "true" && v != "false") {
      return false;
    }
    out = v == "true";
    return true;
  });
}

// Exactly the 16 lowercase hex digits AppendHexField emits.
bool ReadHexField(FlatJsonFields& in, std::string_view key, bool optional, uint64_t& out) {
  return ReadValue(in, key, optional, true, [&](std::string_view v) {
    if (v.size() != 16) {
      return false;
    }
    uint64_t value = 0;
    for (char c : v) {
      int digit = c >= '0' && c <= '9' ? c - '0' : c >= 'a' && c <= 'f' ? c - 'a' + 10 : -1;
      if (digit < 0) {
        return false;
      }
      value = value << 4 | static_cast<uint64_t>(digit);
    }
    out = value;
    return true;
  });
}

bool ReadNameField(FlatJsonFields& in, std::string_view key, bool optional,
                   const std::string_view* names, size_t count, size_t& index) {
  return ReadValue(in, key, optional, true, [&](std::string_view v) {
    for (size_t i = 0; i < count; ++i) {
      if (names[i] == v) {
        index = i;
        return true;
      }
    }
    return false;
  });
}

}  // namespace jockey
