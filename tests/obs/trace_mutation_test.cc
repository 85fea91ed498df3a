// Deterministic mutation test of the trace reader, in the style of the scenario
// parser's. An excerpt of a real trace (fig6_overload's head and tail, and every
// control-plane and kill event between them) is mutated by seeded byte flips,
// inserts and deletes, line duplication and deletion, and swaps of a value for a
// hostile scalar. Every line the strict reader accepts must re-write canonically
// (write, parse, write yields the same bytes), and the postmortem over whatever the
// lenient reader keeps must finish without a crash or undefined behaviour (the
// ASan and UBSan builds run this same test; a hang shows as the test's timeout).
//
// "Re-writes to its own bytes" does not hold: the reader takes whitespace, any key
// order and any digit string that parses to a finite double, so a flipped 17th
// significant digit is accepted and re-written as the shortest form of its value.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/analysis/postmortem.h"
#include "src/obs/jsonl.h"
#include "src/scenario/catalog.h"
#include "src/scenario/compiler.h"
#include "src/scenario/orchestrator.h"
#include "src/scenario/spec.h"
#include "src/util/rng.h"

#ifndef JOCKEY_SCENARIO_DIR
#error "build must define JOCKEY_SCENARIO_DIR"
#endif

namespace jockey {
namespace {

// Values that a lax number, integer or string reader accepts, truncates or
// overflows on.
const char* kHostileScalars[] = {
    "nan", "1e999", "-1", "2147483648", "\"7\"", "",
};

// Bytes with a meaning to the flat JSON syntax, plus a few others.
constexpr char kAlphabet[] = "{}[]:,\"\\ \n\t0123456789.eE+-xnaiftrulsAZ";

constexpr int kMutants = 300;
// A mutant's edits all fall within this many bytes (a few lines), so the lines it
// changes are few and each is checked on its own.
constexpr size_t kSpread = 400;

// The excerpt of fig6_overload's trace: its first kHeadEvents and last kTailEvents,
// and every event between them that is not a task's ready, dispatch or completion.
constexpr size_t kHeadEvents = 1000;
constexpr size_t kTailEvents = 50;
// One JSON line per event, as `run --trace-out` writes them.
std::string Fig6Excerpt() {
  const std::string path = std::string(JOCKEY_SCENARIO_DIR) + "/fig6_overload.yaml";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  ScenarioParseResult parsed = ParseScenarioText(buffer.str());
  EXPECT_TRUE(parsed.spec.has_value());
  JobCatalog catalog;
  ScenarioCompileOptions options;
  options.base_dir = JOCKEY_SCENARIO_DIR;
  options.capture_events = true;
  ScenarioOutcome outcome = RunScenario(CompileScenario(*parsed.spec, catalog, options));
  EXPECT_EQ(outcome.episodes.size(), 1u);
  const std::vector<TraceEvent>& events = outcome.episodes.at(0).result.events;
  EXPECT_GT(events.size(), kHeadEvents + kTailEvents);
  std::string text;
  for (size_t i = 0; i < events.size(); ++i) {
    const EventKind kind = events[i].kind();
    if (i < kHeadEvents || i + kTailEvents >= events.size() ||
        (kind != EventKind::kTaskReady && kind != EventKind::kTaskDispatch &&
         kind != EventKind::kTaskComplete)) {
      AppendJsonLine(text, events[i]);
      text += '\n';
    }
  }
  return text;
}

size_t Pick(Rng& rng, size_t n) { return static_cast<size_t>(rng.UniformInt(0, n - 1)); }

// [begin, end) of the line holding byte `pos`, end including its newline.
std::pair<size_t, size_t> LineAround(const std::string& text, size_t pos) {
  size_t begin = pos == 0 ? 0 : text.rfind('\n', pos - 1) + 1;  // npos + 1 == 0
  size_t end = text.find('\n', pos);
  return {begin, end == std::string::npos ? text.size() : end + 1};
}

// Replaces the value after the `":` at or after byte `pos` with a hostile scalar.
void SwapScalar(Rng& rng, std::string& text, size_t pos) {
  size_t begin = text.find("\":", pos);
  if (begin == std::string::npos) {
    return;
  }
  begin += 2;
  size_t end = text.find_first_of(",}\n", begin);
  end = end == std::string::npos ? text.size() : end;
  text.replace(begin, end - begin,
               kHostileScalars[Pick(rng, sizeof(kHostileScalars) / sizeof(*kHostileScalars))]);
}

// One mutation at a byte within kSpread of `anchor`.
void Mutate(Rng& rng, size_t anchor, std::string& text) {
  if (text.empty()) {
    text.push_back(kAlphabet[Pick(rng, sizeof(kAlphabet) - 1)]);
    return;
  }
  size_t pos = std::min(anchor + Pick(rng, kSpread), text.size() - 1);
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
      SwapScalar(rng, text, pos);
      break;
  }
}

// The lines of `mutant` that may differ from `original`: those between the
// texts' common prefix and common suffix, widened to whole lines.
std::vector<std::string_view> ChangedLines(const std::string& original,
                                           const std::string& mutant) {
  size_t prefix = 0;
  while (prefix < original.size() && prefix < mutant.size() &&
         original[prefix] == mutant[prefix]) {
    ++prefix;
  }
  size_t suffix = 0;
  while (suffix < original.size() - prefix && suffix < mutant.size() - prefix &&
         original[original.size() - 1 - suffix] == mutant[mutant.size() - 1 - suffix]) {
    ++suffix;
  }
  size_t begin = prefix == 0 ? 0 : mutant.rfind('\n', prefix - 1) + 1;  // npos + 1 == 0
  size_t end = mutant.find('\n', mutant.size() - suffix);
  end = end == std::string::npos ? mutant.size() : end;
  std::vector<std::string_view> lines;
  std::string_view region = std::string_view(mutant).substr(begin, end - begin);
  while (!region.empty()) {
    size_t newline = region.find('\n');
    lines.push_back(region.substr(0, newline));
    region.remove_prefix(newline == std::string_view::npos ? region.size() : newline + 1);
  }
  return lines;
}

TEST(TraceJsonlMutationTest, AcceptedLinesRewriteCanonicallyAndThePostmortemFinishes) {
  const std::string original = Fig6Excerpt();
  ASSERT_GT(original.size(), 0u);
  int accepted_lines = 0;
  int rejected_lines = 0;
  int kept_events = 0;
  Rng rng(Rng::CounterSeed(0x7ace0f16u, 0, 0));
  for (int i = 0; i < kMutants; ++i) {
    std::string text = original;
    const size_t anchor = Pick(rng, text.size());
    for (size_t k = 1 + Pick(rng, 3); k > 0; --k) {
      Mutate(rng, anchor, text);
    }
    for (std::string_view line : ChangedLines(original, text)) {
      if (line.empty()) {
        continue;
      }
      std::optional<TraceEvent> event = ParseTraceLine(line);
      if (!event.has_value()) {
        ++rejected_lines;
        continue;
      }
      ++accepted_lines;
      const std::string canonical = ToJsonLine(*event);
      std::optional<TraceEvent> reparsed = ParseTraceLine(canonical);
      ASSERT_TRUE(reparsed.has_value())
          << "mutant " << i << " line " << line << " was accepted, but its canonical form "
          << canonical << " is rejected";
      ASSERT_EQ(ToJsonLine(*reparsed), canonical) << "mutant " << i << " line " << line;
    }
    std::istringstream strict_in(text);
    TraceReadResult strict = ReadJsonlTrace(strict_in, /*strict=*/true);
    std::istringstream in(text);
    TraceReadResult lenient = ReadJsonlTrace(in);
    EXPECT_EQ(strict.first_issue.has_value(), lenient.malformed_lines > 0);
    kept_events += static_cast<int>(lenient.events.size());
    PostmortemOptions options;
    options.deadline_seconds = 1800.0;
    PostmortemReport report = BuildPostmortem(lenient.events, options);
    std::ostringstream sink;
    WritePostmortemJson(sink, report);
    PrintPostmortem(sink, report);
    EXPECT_EQ(report.events, static_cast<int>(lenient.events.size()));
  }
  // Both outcomes really occur: the mutations are neither all fatal nor all inert.
  EXPECT_GT(accepted_lines, 0);
  EXPECT_GT(rejected_lines, 0);
  EXPECT_GT(kept_events, 0);
}

}  // namespace
}  // namespace jockey
