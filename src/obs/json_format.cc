#include "src/obs/json_format.h"

#include <cmath>

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

}  // namespace jockey
