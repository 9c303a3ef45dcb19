#include "passes/array_use.hpp"

#include <algorithm>

#include "common/dense_table.hpp"

namespace cash::passes {

void analyze_loop(const ir::Function& function, const ir::Loop& loop,
                  LoopArrays& out) {
  struct Scratch {
    std::vector<ir::BlockId> blocks;
    StampedSet body;
    std::vector<const ir::Loop*> nested;
  };
  thread_local Scratch scratch;
  out.loop = loop.id;
  out.depth = loop.depth;
  out.arrays.clear();
  out.reassigned.clear();

  // Body blocks in creation (= source) order gives FCFS in parse order,
  // matching how the Cash compiler encounters arrays during parsing.
  std::vector<ir::BlockId>& blocks = scratch.blocks;
  blocks.assign(loop.body.begin(), loop.body.end());
  std::sort(blocks.begin(), blocks.end());

  for (ir::BlockId block_id : blocks) {
    const ir::BasicBlock& block = function.block(block_id);
    for (const ir::Instr& instr : block.instrs) {
      if (!instr.is_memory_access() || instr.array_ref == ir::kNoSymbol) {
        continue;
      }
      if (std::find(out.arrays.begin(), out.arrays.end(), instr.array_ref) ==
          out.arrays.end()) {
        out.arrays.push_back(instr.array_ref);
      }
    }
  }

  // Union of reassignment records over this loop and every loop nested in
  // it (a pointer re-seated in an inner loop is just as unsafe to hoist).
  scratch.body.clear(function.blocks.size());
  for (ir::BlockId b : loop.body) {
    scratch.body.insert(b);
  }
  scratch.nested.clear();
  scratch.nested.push_back(&loop);
  for (const ir::Loop& other : function.loops) {
    if (other.id != loop.id && !other.body.empty() &&
        scratch.body.contains(other.header)) {
      scratch.nested.push_back(&other);
    }
  }
  for (ir::SymbolId sym : out.arrays) {
    for (const ir::Loop* l : scratch.nested) {
      if (std::find(l->reassigned_ptrs.begin(), l->reassigned_ptrs.end(),
                    sym) != l->reassigned_ptrs.end()) {
        out.reassigned.push_back(sym);
        break;
      }
    }
  }
}

LoopArrays analyze_loop(const ir::Function& function, const ir::Loop& loop) {
  LoopArrays out;
  analyze_loop(function, loop, out);
  return out;
}

std::vector<LoopArrays> analyze_loops(const ir::Function& function) {
  std::vector<LoopArrays> out;
  out.reserve(function.loops.size());
  for (const ir::Loop& loop : function.loops) {
    out.push_back(analyze_loop(function, loop));
  }
  return out;
}

} // namespace cash::passes
