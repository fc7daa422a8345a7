// The one way the mempool tests insert a transaction: in a record of its
// own, the way an origin keeps its own submission. The pool has no copying
// insert; every entry shares the record its transaction arrived in.
#pragma once

#include <memory>

#include "mempool/mempool.hpp"

namespace hermes::mempool::testing {

inline bool insert(Mempool& pool, const Transaction& tx, sim::SimTime now) {
  auto record = std::make_shared<const Transaction>(tx);
  return pool.insert(record, *record, now);
}

}  // namespace hermes::mempool::testing
