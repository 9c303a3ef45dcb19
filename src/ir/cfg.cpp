#include "ir/cfg.hpp"

#include <algorithm>

namespace cash::ir {

void Cfg::assign(const Function& function) {
  entry_ = function.entry;
  blocks_ = function.blocks.size();
  if (succs_.size() < blocks_) {
    succs_.resize(blocks_);
    preds_.resize(blocks_);
  }
  for (std::size_t b = 0; b < blocks_; ++b) {
    succs_[b].clear();
    preds_[b].clear();
  }
  for (const auto& block : function.blocks) {
    const Instr* term = block->terminator();
    if (term == nullptr) {
      continue;
    }
    auto add_edge = [&](BlockId to) {
      if (to == kNoBlock) {
        return;
      }
      succs_[static_cast<size_t>(block->id)].push_back(to);
      preds_[static_cast<size_t>(to)].push_back(block->id);
    };
    switch (term->op) {
      case Opcode::kJump:
        add_edge(term->target0);
        break;
      case Opcode::kBranch:
        add_edge(term->target0);
        if (term->target1 != term->target0) {
          add_edge(term->target1);
        }
        break;
      default:
        break; // kRet: no successors
    }
  }
  compute_reverse_post_order();
}

void Cfg::compute_reverse_post_order() {
  rpo_.clear();
  visited_.assign(blocks_, 0);
  // Iterative DFS with an explicit stack of (block, next-successor-index).
  stack_.clear();
  if (entry_ != kNoBlock) {
    stack_.emplace_back(entry_, 0);
    visited_[static_cast<size_t>(entry_)] = 1;
  }
  while (!stack_.empty()) {
    auto& [block, next] = stack_.back();
    const auto& succs = succs_[static_cast<size_t>(block)];
    if (next < succs.size()) {
      const BlockId succ = succs[next++];
      if (!visited_[static_cast<size_t>(succ)]) {
        visited_[static_cast<size_t>(succ)] = 1;
        stack_.emplace_back(succ, 0);
      }
    } else {
      rpo_.push_back(block);
      stack_.pop_back();
    }
  }
  std::reverse(rpo_.begin(), rpo_.end());
}

} // namespace cash::ir
