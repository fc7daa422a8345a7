// The 24-seed corpus listing (`fuzz --hash-batch 24`) must match the
// [corpus] section of tests/pinned_outputs.txt line for line, and the
// 48-seed listing of the default generator (`fuzz --hash-batch 48
// --extended`) the [extended] section. A change that moves a trace on
// purpose re-records the file with tools/pinned_outputs.py.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "fuzz/runner.hpp"
#include "fuzz/scenario.hpp"

namespace hermes::fuzz {
namespace {

constexpr std::uint64_t kCorpusSeeds = 24;
constexpr std::uint64_t kExtendedSeeds = 48;

// Body lines of one "[name] ..." section, comments and blank lines skipped.
std::vector<std::string> pinned_section(const std::string& name) {
  std::ifstream in(HERMES_PINNED_OUTPUTS);
  std::vector<std::string> lines;
  bool inside = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind('[', 0) == 0) {
      inside = line.rfind("[" + name + "]", 0) == 0;
    } else if (inside && !line.empty() && line[0] != '#') {
      lines.push_back(line);
    }
  }
  return lines;
}

// Diffs seeds 1..seeds of one generator, at one worker exactly as
// fuzz --hash-batch runs them, against the pinned section.
void expect_listing(const std::string& section, std::uint64_t seeds,
                    bool extended) {
  const std::vector<std::string> pinned = pinned_section(section);
  ASSERT_EQ(pinned.size(), seeds) << HERMES_PINNED_OUTPUTS;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const RunResult r = run_scenario(generate_scenario(seed, extended), {});
    const std::string line = std::to_string(seed) + " " + r.trace_hash + " " +
                             std::to_string(r.sends);
    EXPECT_EQ(line, pinned[seed - 1]);
  }
}

TEST(PinnedOutputs, CorpusMatchesHashBatch) {
  expect_listing("corpus", kCorpusSeeds, /*extended=*/false);
}

// The legacy corpus never sends the churn, view-change, digest and join
// messages; seeds 1-48 of the default generator send every HERMES tag.
TEST(PinnedOutputs, ExtendedCorpusMatchesHashBatch) {
  expect_listing("extended", kExtendedSeeds, /*extended=*/true);
}

}  // namespace
}  // namespace hermes::fuzz
