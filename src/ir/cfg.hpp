#pragma once

#include <utility>
#include <vector>

#include "ir/function.hpp"

namespace cash::ir {

// Explicit control-flow graph view over a Function's blocks (successors are
// implicit in the terminators; analyses want both directions).
class Cfg {
 public:
  Cfg() = default;
  explicit Cfg(const Function& function) { assign(function); }

  // Rebuilds the graph for `function`, reusing this object's storage, so a
  // pass that keeps one Cfg across functions stops allocating once it has
  // seen the largest.
  void assign(const Function& function);

  const std::vector<BlockId>& successors(BlockId block) const {
    return succs_[static_cast<size_t>(block)];
  }
  const std::vector<BlockId>& predecessors(BlockId block) const {
    return preds_[static_cast<size_t>(block)];
  }
  std::size_t block_count() const noexcept { return blocks_; }
  BlockId entry() const noexcept { return entry_; }

  // Blocks in reverse post-order from the entry (unreachable blocks absent).
  const std::vector<BlockId>& reverse_post_order() const { return rpo_; }

 private:
  void compute_reverse_post_order();

  BlockId entry_{kNoBlock};
  std::size_t blocks_{0};
  // Sized to the largest function seen; entries [0, blocks_) are current.
  std::vector<std::vector<BlockId>> succs_;
  std::vector<std::vector<BlockId>> preds_;
  std::vector<BlockId> rpo_;
  std::vector<char> visited_;
  std::vector<std::pair<BlockId, std::size_t>> stack_;
};

} // namespace cash::ir
