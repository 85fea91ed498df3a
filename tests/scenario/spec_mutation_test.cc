// Deterministic mutation test of the scenario parser. Each checked-in scenario is
// mutated by seeded byte flips, inserts and deletes, line duplication and deletion,
// and swaps of a scalar value for a hostile one. Every mutant must parse without a
// crash or undefined behaviour (the ASan and UBSan builds run this same test), and
// every mutant the parser accepts must re-write canonically: write, parse, write
// yields the same bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/scenario/spec.h"
#include "src/util/rng.h"

#ifndef JOCKEY_SCENARIO_DIR
#error "build must define JOCKEY_SCENARIO_DIR"
#endif

namespace jockey {
namespace {

// Values that a lax number reader accepts, truncates or overflows on.
const char* kHostileScalars[] = {
    "nan", "inf", "1e999", "0x10", "-1", "2.0", "\"7\"", "18446744073709551616", "",
};

// Bytes with a meaning to the YAML subset or the JSON flow syntax, plus a few others.
constexpr char kAlphabet[] = ":-{}[],\"#\\ \n\t0123456789.eE+xnaiftruAZ";

constexpr int kMutantsPerFile = 600;

// Every checked-in scenario, in name order (the mutation seeds follow it).
std::vector<std::filesystem::path> ScenarioFiles() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(JOCKEY_SCENARIO_DIR)) {
    if (entry.path().extension() == ".yaml") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

size_t Pick(Rng& rng, size_t n) { return static_cast<size_t>(rng.UniformInt(0, n - 1)); }

// [begin, end) of the line holding byte `pos`, end including its newline.
std::pair<size_t, size_t> LineAround(const std::string& text, size_t pos) {
  size_t begin = pos == 0 ? 0 : text.rfind('\n', pos - 1) + 1;  // npos + 1 == 0
  size_t end = text.find('\n', pos);
  return {begin, end == std::string::npos ? text.size() : end + 1};
}

// Replaces the value of a random `key: value` line with a hostile scalar.
void SwapScalar(Rng& rng, std::string& text) {
  std::vector<size_t> values;
  for (size_t pos = text.find(": "); pos != std::string::npos; pos = text.find(": ", pos + 1)) {
    if (pos + 2 < text.size() && text[pos + 2] != '\n' && text[pos + 2] != '{') {
      values.push_back(pos + 2);
    }
  }
  if (values.empty()) {
    return;
  }
  size_t begin = values[Pick(rng, values.size())];
  size_t end = text.find_first_of("\n#,}", begin);
  end = end == std::string::npos ? text.size() : end;
  while (end > begin && text[end - 1] == ' ') {
    --end;
  }
  text.replace(begin, end - begin,
               kHostileScalars[Pick(rng, sizeof(kHostileScalars) / sizeof(*kHostileScalars))]);
}

void Mutate(Rng& rng, std::string& text) {
  if (text.empty()) {
    text.push_back(kAlphabet[Pick(rng, sizeof(kAlphabet) - 1)]);
    return;
  }
  size_t pos = Pick(rng, text.size());
  switch (Pick(rng, 6)) {
    case 0:
      text[pos] = static_cast<char>(text[pos] ^ (1 << Pick(rng, 8)));
      break;
    case 1:
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(pos),
                  kAlphabet[Pick(rng, sizeof(kAlphabet) - 1)]);
      break;
    case 2:
      text.erase(pos, 1);
      break;
    case 3: {
      auto [begin, end] = LineAround(text, pos);
      text.insert(begin, text.substr(begin, end - begin));
      break;
    }
    case 4: {
      auto [begin, end] = LineAround(text, pos);
      text.erase(begin, end - begin);
      break;
    }
    default:
      SwapScalar(rng, text);
      break;
  }
}

TEST(ScenarioSpecMutationTest, AcceptedMutantsRewriteCanonically) {
  int accepted = 0;
  int rejected = 0;
  const std::vector<std::filesystem::path> files = ScenarioFiles();
  ASSERT_GE(files.size(), 7u);
  for (size_t file = 0; file < files.size(); ++file) {
    const std::string name = files[file].filename().string();
    const std::string original = ReadFile(files[file]);
    Rng rng(Rng::CounterSeed(0x5ce7a210u, file, 0));
    for (int i = 0; i < kMutantsPerFile; ++i) {
      std::string text = original;
      for (size_t k = 1 + Pick(rng, 3); k > 0; --k) {
        Mutate(rng, text);
      }
      ScenarioParseResult parsed = ParseScenarioText(text);
      if (!parsed.spec.has_value()) {
        ASSERT_TRUE(parsed.issue.has_value());
        ++rejected;
        continue;
      }
      ++accepted;
      std::string json = WriteScenarioJson(*parsed.spec);
      ScenarioParseResult reparsed = ParseScenarioText(json);
      ASSERT_TRUE(reparsed.spec.has_value())
          << name << " mutant " << i << " was accepted, but its canonical form "
          << json << " is rejected: "
          << FormatScenarioIssue("<json>", reparsed.issue.value_or(ScenarioParseIssue{}))
          << "\nmutant:\n"
          << text;
      ASSERT_EQ(WriteScenarioJson(*reparsed.spec), json)
          << name << " mutant " << i << ":\n"
          << text;
    }
  }
  // Both outcomes must be common, or the mutations test nothing.
  EXPECT_GT(accepted, 300);
  EXPECT_GT(rejected, 300);
}

}  // namespace
}  // namespace jockey
