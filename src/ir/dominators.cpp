#include "ir/dominators.hpp"

namespace cash::ir {

void DominatorTree::assign(const Cfg& cfg) {
  entry_ = cfg.entry();
  idom_.assign(cfg.block_count(), kNoBlock);
  rpo_index_.assign(cfg.block_count(), -1);
  const std::vector<BlockId>& rpo = cfg.reverse_post_order();
  for (std::size_t i = 0; i < rpo.size(); ++i) {
    rpo_index_[static_cast<size_t>(rpo[i])] = static_cast<int>(i);
  }
  if (rpo.empty()) {
    return;
  }
  idom_[static_cast<size_t>(entry_)] = entry_;

  auto intersect = [&](BlockId a, BlockId b) {
    while (a != b) {
      while (rpo_index_[static_cast<size_t>(a)] >
             rpo_index_[static_cast<size_t>(b)]) {
        a = idom_[static_cast<size_t>(a)];
      }
      while (rpo_index_[static_cast<size_t>(b)] >
             rpo_index_[static_cast<size_t>(a)]) {
        b = idom_[static_cast<size_t>(b)];
      }
    }
    return a;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (BlockId block : rpo) {
      if (block == entry_) {
        continue;
      }
      BlockId new_idom = kNoBlock;
      for (BlockId pred : cfg.predecessors(block)) {
        if (idom_[static_cast<size_t>(pred)] == kNoBlock) {
          continue; // pred not yet processed / unreachable
        }
        new_idom = (new_idom == kNoBlock) ? pred : intersect(pred, new_idom);
      }
      if (new_idom != kNoBlock &&
          idom_[static_cast<size_t>(block)] != new_idom) {
        idom_[static_cast<size_t>(block)] = new_idom;
        changed = true;
      }
    }
  }
}

bool DominatorTree::dominates(BlockId a, BlockId b) const {
  while (true) {
    if (a == b) {
      return true;
    }
    if (b == entry_ || b == kNoBlock) {
      return false;
    }
    const BlockId up = idom_[static_cast<size_t>(b)];
    if (up == b || up == kNoBlock) {
      return false;
    }
    b = up;
  }
}

} // namespace cash::ir
