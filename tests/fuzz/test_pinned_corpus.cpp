// The 24-seed corpus listing (`fuzz --hash-batch 24`) must match the
// [corpus] section of tests/pinned_outputs.txt line for line. A change that
// moves a trace on purpose re-records the file with tools/pinned_outputs.py.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "fuzz/runner.hpp"
#include "fuzz/scenario.hpp"

namespace hermes::fuzz {
namespace {

constexpr std::uint64_t kCorpusSeeds = 24;

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

TEST(PinnedOutputs, CorpusMatchesHashBatch) {
  const std::vector<std::string> pinned = pinned_section("corpus");
  ASSERT_EQ(pinned.size(), kCorpusSeeds) << HERMES_PINNED_OUTPUTS;
  for (std::uint64_t seed = 1; seed <= kCorpusSeeds; ++seed) {
    // Legacy generation and one worker, exactly as fuzz --hash-batch runs.
    const RunResult r = run_scenario(generate_scenario(seed, false), {});
    const std::string line = std::to_string(seed) + " " + r.trace_hash + " " +
                             std::to_string(r.sends);
    EXPECT_EQ(line, pinned[seed - 1]);
  }
}

}  // namespace
}  // namespace hermes::fuzz
