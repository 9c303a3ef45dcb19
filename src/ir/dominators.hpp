#pragma once

#include <vector>

#include "ir/cfg.hpp"

namespace cash::ir {

// Dominator tree via the Cooper-Harvey-Kennedy iterative algorithm.
// Used by NaturalLoops to validate the front end's syntactic loop records.
class DominatorTree {
 public:
  DominatorTree() = default;
  explicit DominatorTree(const Cfg& cfg) { assign(cfg); }

  // Recomputes the tree for `cfg`, reusing this object's storage.
  void assign(const Cfg& cfg);

  // Immediate dominator; entry's idom is itself; unreachable -> kNoBlock.
  BlockId idom(BlockId block) const {
    return idom_[static_cast<size_t>(block)];
  }

  // Whether `a` dominates `b` (reflexive).
  bool dominates(BlockId a, BlockId b) const;

 private:
  BlockId entry_{kNoBlock};
  std::vector<BlockId> idom_;
  std::vector<int> rpo_index_;
};

} // namespace cash::ir
