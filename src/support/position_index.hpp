// Open-addressed index from 64-bit ids to their positions in a sequence the
// owner appends to in arrival order (a Mempool's arrival log, a Narwhal
// node's certificate order).
//
// A slot holds position + 1, 0 is empty, and the id at a position is read
// back from the owner's sequence through the `id_at(position)` callable
// every call takes, so a slot is 4 bytes. Probes start at the Fibonacci
// hash of the id and walk linearly, wrapping past the last slot; the table
// starts at 16 slots and doubles before its load passes 1/2, re-placing
// every position.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/assert.hpp"

namespace hermes {

class PositionIndex {
 public:
  static constexpr std::uint32_t kAbsent = UINT32_MAX;

  // The position of `id`, or kAbsent.
  template <typename IdAt>
  std::uint32_t find(std::uint64_t id, const IdAt& id_at) const {
    if (slots_.empty()) return kAbsent;
    const std::uint32_t at = slots_[probe(id, id_at)];
    return at == 0 ? kAbsent : at - 1;
  }

  // Indexes `id` at position `size`, the length of the owner's sequence,
  // unless it is indexed already; returns whether it was not. The owner
  // then appends `id` at that position.
  template <typename IdAt>
  bool insert(std::uint64_t id, std::size_t size, const IdAt& id_at) {
    std::size_t s = 0;
    if (!slots_.empty()) {
      s = probe(id, id_at);
      if (slots_[s] != 0) return false;
    }
    HERMES_REQUIRE(size < kAbsent);
    if (2 * (size + 1) > slots_.size()) {
      grow(size, id_at);
      s = probe(id, id_at);
    }
    slots_[s] = static_cast<std::uint32_t>(size + 1);
    return true;
  }

 private:
  // The slot holding `id`, or the empty slot where it would go. Requires a
  // non-empty table.
  template <typename IdAt>
  std::size_t probe(std::uint64_t id, const IdAt& id_at) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = (id * 0x9e3779b97f4a7c15ULL) >> shift_;;
         s = (s + 1) & mask) {
      const std::uint32_t at = slots_[s];
      if (at == 0 || id_at(at - 1) == id) return s;
    }
  }

  // Doubles the table and re-places positions 0..size-1.
  template <typename IdAt>
  void grow(std::size_t size, const IdAt& id_at) {
    const std::size_t n = slots_.empty() ? 16 : 2 * slots_.size();
    slots_.assign(n, 0);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
    for (std::size_t pos = 0; pos < size; ++pos) {
      slots_[probe(id_at(pos), id_at)] = static_cast<std::uint32_t>(pos + 1);
    }
  }

  std::vector<std::uint32_t> slots_;  // size 0 or a power of two
  unsigned shift_ = 64;               // 64 - log2(slots_.size())
};

}  // namespace hermes
