// Differential test of PositionIndex against std::unordered_map: random id
// streams with repeats, over enough distinct ids that the table grows from
// 16 slots to 16,384, and a run of ids that all probe from the last slot.
#include "support/position_index.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "support/rng.hpp"

namespace hermes {
namespace {

// The owner's side: ids in arrival order plus the index over them, with a
// reference map of first positions beside.
struct Indexed {
  std::vector<std::uint64_t> order;
  PositionIndex index;
  std::unordered_map<std::uint64_t, std::uint32_t> reference;

  auto id_at() const {
    return [this](std::size_t pos) { return order[pos]; };
  }

  void insert(std::uint64_t id) {
    const bool fresh = index.insert(id, order.size(), id_at());
    const bool ref_fresh =
        reference.try_emplace(id, static_cast<std::uint32_t>(order.size()))
            .second;
    ASSERT_EQ(fresh, ref_fresh) << id;
    if (fresh) order.push_back(id);
    ASSERT_NO_FATAL_FAILURE(expect_same(id));
  }

  void expect_same(std::uint64_t id) const {
    const auto it = reference.find(id);
    const std::uint32_t want =
        it == reference.end() ? PositionIndex::kAbsent : it->second;
    ASSERT_EQ(index.find(id, id_at()), want) << id;
  }
};

TEST(PositionIndexDiff, RandomIdsWithRepeatsMatchUnorderedMap) {
  Rng rng(29);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6000; ++i) ids.push_back(rng.next_u64());
  Indexed x;
  for (int step = 0; step < 20000; ++step) {
    // Mostly known ids, so about two thirds of the inserts are repeats.
    const std::uint64_t id = ids[rng.uniform_u64(ids.size())];
    ASSERT_NO_FATAL_FAILURE(x.insert(id));
    ASSERT_NO_FATAL_FAILURE(x.expect_same(ids[rng.uniform_u64(ids.size())]));
    ASSERT_NO_FATAL_FAILURE(x.expect_same(rng.next_u64()));
  }
  ASSERT_GT(x.order.size(), 4096u);  // past the table of 8,192 slots
  for (std::uint64_t id : ids) ASSERT_NO_FATAL_FAILURE(x.expect_same(id));
}

TEST(PositionIndexDiff, ProbesWrapPastTheLastSlot) {
  // Nine ids whose probes all start at the last of the first table's 16
  // slots: the second and later of the eight inserted wrap to slot 0
  // onwards, and the ninth, never inserted, walks the whole run before it
  // meets an empty slot. The eighth fills the table to load 1/2 without
  // growing it, and inserting them again changes nothing.
  std::vector<std::uint64_t> last_slot;
  for (std::uint64_t id = 1; last_slot.size() < 9; ++id) {
    if ((id * 0x9e3779b97f4a7c15ULL) >> 60 == 15) last_slot.push_back(id);
  }
  Indexed x;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < 8; ++i) {
      ASSERT_NO_FATAL_FAILURE(x.insert(last_slot[i]));
    }
    for (std::uint64_t id : last_slot) {
      ASSERT_NO_FATAL_FAILURE(x.expect_same(id));
    }
  }
  EXPECT_EQ(x.order.size(), 8u);
  EXPECT_EQ(x.index.find(last_slot[8], x.id_at()), PositionIndex::kAbsent);
}

}  // namespace
}  // namespace hermes
