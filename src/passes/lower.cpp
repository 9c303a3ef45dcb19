#include "passes/lower.hpp"

#include <algorithm>
#include <vector>

#include "common/dense_table.hpp"
#include "passes/array_use.hpp"
#include "x86seg/segmentation_unit.hpp"

namespace cash::passes {

namespace {

using ir::BasicBlock;
using ir::Function;
using ir::Instr;
using ir::kNoSymbol;
using ir::Opcode;
using ir::SymbolId;

// Segment registers available to Cash, in allocation order: ES, FS, GS, then
// SS once PUSH/POP rewriting frees it (Section 3.7).
constexpr std::int8_t kSegAllocationOrder[] = {
    static_cast<std::int8_t>(x86seg::SegReg::kEs),
    static_cast<std::int8_t>(x86seg::SegReg::kFs),
    static_cast<std::int8_t>(x86seg::SegReg::kGs),
    static_cast<std::int8_t>(x86seg::SegReg::kSs),
};

inline bool check_reads_applies(const LowerOptions& options, bool is_write) {
  return options.check_reads || is_write;
}

// Tables reused across blocks, loops, functions and calls, per thread.
struct Scratch {
  std::vector<char> check_before; // by instruction index in the block
  StampedSet checked;
  StampedMap<ir::Reg> representative;
  // Cash: the outer nest whose segment assignment covers each block.
  std::vector<int> nest_of_block;
  struct Nest {
    ir::BlockId preheader{ir::kNoBlock};
    std::vector<std::pair<SymbolId, std::int8_t>> loads; // FCFS order
  };
  ReuseList<Nest> nests;
  LoopArrays use;
  std::vector<SymbolId> candidates;
  std::vector<Instr> prefix;
};

Scratch& scratch() {
  thread_local Scratch tables;
  return tables;
}

// Inserts, in place, a software check of `op` before every instruction
// whose `check_before` flag is set; `count` is the number of flags set.
void insert_checks(std::vector<Instr>& instrs,
                   const std::vector<char>& check_before, std::size_t count,
                   Opcode op) {
  if (count == 0) {
    return;
  }
  const std::size_t n = instrs.size();
  instrs.reserve(n + count); // exactly; resize alone may double
  instrs.resize(n + count);
  // Walk back from the end, moving each instruction later by the number of
  // checks still to be placed before it.
  std::size_t w = n + count;
  for (std::size_t i = n; w != i;) {
    --i;
    --w;
    instrs[w] = std::move(instrs[i]);
    if (check_before[i] != 0) {
      const Instr& access = instrs[w];
      Instr check;
      check.op = op;
      check.src0 = access.src0; // the address register
      check.array_ref = access.array_ref;
      check.loop = access.loop;
      check.loc = access.loc;
      instrs[--w] = std::move(check);
    }
  }
}

// Inserts software checks (BCC / bound-instruction modes) before every
// qualifying array reference in the function.
LowerStats lower_software_checks(Function& function, Opcode check_op,
                                 const LowerOptions& options) {
  LowerStats stats;
  Scratch& tables = scratch();
  const std::size_t regs = static_cast<std::size_t>(function.next_reg);
  for (auto& block : function.blocks) {
    std::vector<Instr>& instrs = block->instrs;
    tables.check_before.assign(instrs.size(), 0);
    std::size_t checks = 0;
    // Gupta-style redundancy: *values* already checked in this block.
    // Copies (kMove) propagate the representative, so the CSE'd address of
    // an a[i] read-modify-write is recognised; any other redefinition
    // invalidates.
    StampedSet& checked = tables.checked;
    StampedMap<ir::Reg>& representative = tables.representative;
    checked.clear(regs);
    representative.clear(regs);
    auto rep_of = [&](ir::Reg r) {
      const ir::Reg* rep = representative.find(r);
      return rep != nullptr ? *rep : r;
    };
    for (std::size_t i = 0; i < instrs.size(); ++i) {
      const Instr& instr = instrs[i];
      if (instr.dst != ir::kNoReg) {
        if (instr.op == Opcode::kMove && instr.src0 != ir::kNoReg) {
          representative.set(instr.dst, rep_of(instr.src0));
        } else {
          representative.set(instr.dst, instr.dst);
          checked.erase(instr.dst);
        }
      }
      const bool is_ref =
          instr.is_memory_access() && instr.array_ref != kNoSymbol;
      if (!is_ref) {
        continue;
      }
      const bool is_write = instr.op == Opcode::kStore;
      if (instr.check_elided) {
        // Proven in-bounds by the elision pass: no check at all.
        ++stats.elided_refs;
      } else if (check_reads_applies(options, is_write)) {
        const ir::Reg addr = rep_of(instr.src0);
        if (options.eliminate_redundant_checks && checked.contains(addr)) {
          ++stats.redundant_eliminated;
        } else {
          tables.check_before[i] = 1;
          ++checks;
          checked.insert(addr);
          ++stats.sw_checks;
        }
      } else {
        ++stats.unchecked_refs;
      }
    }
    insert_checks(instrs, tables.check_before, checks, check_op);
  }
  return stats;
}

// The Cash lowering (Section 3.3/3.7): per outermost loop nest, FCFS segment
// register allocation, hoisted segment loads in the preheader, segment-based
// rewriting of assigned references, and software fallback for the rest.
LowerStats lower_cash(Function& function, const LowerOptions& options) {
  LowerStats stats;
  Scratch& tables = scratch();

  // Each block takes the segment assignment of the outer nest whose body
  // holds it (blocks of different nests are disjoint).
  tables.nest_of_block.assign(function.blocks.size(), -1);
  tables.nests.clear();
  unsigned used_regs = 0; // bit per x86seg::SegReg

  for (const ir::Loop& loop : function.loops) {
    if (loop.parent != ir::kNoLoop) {
      continue; // outermost nests only, in program order
    }
    LoopArrays& use = tables.use;
    analyze_loop(function, loop, use);
    ++stats.outer_loops;

    // Arrays that need a checked access in this nest (shared with the
    // elision pass, which predicts this assignment).
    std::vector<SymbolId>& candidates = tables.candidates;
    cash_segment_candidates(function, loop, use, options, candidates);
    if (static_cast<int>(candidates.size()) > options.num_seg_regs) {
      ++stats.spilled_outer_loops;
    }

    const int nest = static_cast<int>(tables.nests.size());
    Scratch::Nest& work = tables.nests.claim();
    work.preheader = loop.preheader;
    work.loads.clear();
    int next_reg = 0;
    for (SymbolId sym : candidates) {
      if (next_reg >= options.num_seg_regs) {
        break;
      }
      if (std::find(use.reassigned.begin(), use.reassigned.end(), sym) !=
          use.reassigned.end()) {
        continue; // pointer re-seated inside the loop: spill to software
      }
      if (function.find_array_sym(sym) == nullptr) {
        continue; // no way to materialise the pointer in the preheader
      }
      const std::int8_t reg = kSegAllocationOrder[next_reg++];
      used_regs |= 1U << reg;
      work.loads.emplace_back(sym, reg);
    }
    for (ir::BlockId block_id : loop.body) {
      int& owner = tables.nest_of_block[static_cast<std::size_t>(block_id)];
      if (owner < 0) {
        owner = nest;
      }
    }
  }

  // Rewrite memory accesses.
  for (auto& block : function.blocks) {
    const int nest = tables.nest_of_block[static_cast<std::size_t>(block->id)];
    const auto* assigned =
        nest >= 0 ? &tables.nests[static_cast<std::size_t>(nest)].loads
                  : nullptr;
    std::vector<Instr>& instrs = block->instrs;
    tables.check_before.assign(instrs.size(), 0);
    std::size_t checks = 0;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
      Instr& instr = instrs[i];
      const bool is_ref =
          instr.is_memory_access() && instr.array_ref != kNoSymbol;
      if (!is_ref) {
        continue;
      }
      if (instr.check_elided) {
        // Proven in-bounds by the elision pass: flat DS access, no segment.
        ++stats.elided_refs;
        continue;
      }
      const bool is_write = instr.op == Opcode::kStore;
      const bool in_loop = instr.loop != ir::kNoLoop;
      if (!in_loop) {
        // Cash only checks array references inside loops (Section 1).
        ++stats.unchecked_refs;
        continue;
      }
      if (!options.check_reads && !is_write) {
        ++stats.unchecked_refs;
        continue;
      }
      const std::int8_t* seg = nullptr;
      if (assigned != nullptr) {
        for (const auto& [sym, reg] : *assigned) {
          if (sym == instr.array_ref) {
            seg = &reg;
            break;
          }
        }
      }
      if (seg != nullptr) {
        instr.seg = *seg;
        instr.rebased = true;
        ++stats.hw_checks;
      } else {
        tables.check_before[i] = 1;
        ++checks;
        ++stats.sw_checks;
      }
    }
    insert_checks(instrs, tables.check_before, checks, Opcode::kBoundCheckSw);
  }

  // Insert preheader materialisation + segment loads (before the
  // terminator), in FCFS order.
  for (const Scratch::Nest& work : tables.nests) {
    if (work.loads.empty()) {
      continue;
    }
    BasicBlock& preheader = function.block(work.preheader);
    std::vector<Instr>& prefix = tables.prefix;
    prefix.clear();
    for (const auto& [sym, seg] : work.loads) {
      const ir::ArraySym* array_sym = function.find_array_sym(sym);
      Instr materialize;
      materialize.synthetic = true; // costed as part of the segment load
      materialize.dst = function.new_reg();
      switch (array_sym->kind) {
        case ir::ArraySym::Kind::kLocalArray:
          materialize.op = Opcode::kAddrLocal;
          materialize.slot = array_sym->slot;
          materialize.array_ref = sym;
          break;
        case ir::ArraySym::Kind::kGlobalArray:
          materialize.op = Opcode::kAddrGlobal;
          materialize.symbol = array_sym->global;
          materialize.array_ref = sym;
          break;
        case ir::ArraySym::Kind::kPointerSlot:
          materialize.op = Opcode::kLoadLocal;
          materialize.slot = array_sym->slot;
          break;
      }
      prefix.push_back(materialize);

      Instr seg_load;
      seg_load.op = Opcode::kSegLoad;
      seg_load.seg = seg;
      seg_load.src0 = materialize.dst;
      seg_load.array_ref = sym;
      prefix.push_back(seg_load);
      ++stats.seg_loads;
    }
    std::vector<Instr>& instrs = preheader.instrs;
    const std::size_t at =
        !instrs.empty() && instrs.back().is_terminator() ? instrs.size() - 1
                                                         : instrs.size();
    instrs.reserve(instrs.size() + prefix.size());
    instrs.insert(instrs.begin() + static_cast<std::ptrdiff_t>(at),
                  std::make_move_iterator(prefix.begin()),
                  std::make_move_iterator(prefix.end()));
  }

  function.used_seg_regs.clear();
  for (int reg = 0; reg < x86seg::kNumSegRegs; ++reg) {
    if ((used_regs & (1U << reg)) != 0) {
      function.used_seg_regs.push_back(static_cast<std::int8_t>(reg));
    }
  }
  return stats;
}

// Counts references Cash would have checked, for NoCheck/Efence accounting.
LowerStats count_only(const Function& function) {
  LowerStats stats;
  for (const auto& block : function.blocks) {
    for (const Instr& instr : block->instrs) {
      if (instr.is_memory_access() && instr.array_ref != kNoSymbol) {
        ++stats.unchecked_refs;
      }
    }
  }
  return stats;
}

} // namespace

void cash_segment_candidates(const ir::Function& function,
                             const ir::Loop& loop, const LoopArrays& use,
                             const LowerOptions& options,
                             std::vector<ir::SymbolId>& candidates) {
  // An array keeps its FCFS claim only while at least one access in the nest
  // still needs instrumentation (write-only in security-only mode; elided
  // accesses never count).
  candidates.clear();
  for (SymbolId sym : use.arrays) {
    bool qualifies = false;
    for (ir::BlockId block_id : loop.body) {
      for (const Instr& instr : function.block(block_id).instrs) {
        if (instr.array_ref == sym && instr.is_memory_access() &&
            !instr.check_elided &&
            check_reads_applies(options, instr.op == Opcode::kStore)) {
          qualifies = true;
          break;
        }
      }
      if (qualifies) {
        break;
      }
    }
    if (qualifies) {
      candidates.push_back(sym);
    }
  }
}

const char* to_string(CheckMode mode) noexcept {
  switch (mode) {
    case CheckMode::kNoCheck:   return "gcc";
    case CheckMode::kBcc:       return "bcc";
    case CheckMode::kCash:      return "cash";
    case CheckMode::kBoundInsn: return "bound-insn";
    case CheckMode::kEfence:    return "efence";
    case CheckMode::kShadow:    return "shadow";
  }
  return "?";
}

LowerStats lower_function(ir::Function& function,
                          const LowerOptions& options) {
  switch (options.mode) {
    case CheckMode::kNoCheck:
    case CheckMode::kEfence:
      return count_only(function);
    case CheckMode::kBcc:
      return lower_software_checks(function, Opcode::kBoundCheckSw, options);
    case CheckMode::kBoundInsn:
      return lower_software_checks(function, Opcode::kBoundCheckBnd,
                                   options);
    case CheckMode::kShadow:
      return lower_software_checks(function, Opcode::kBoundCheckShadow,
                                   options);
    case CheckMode::kCash:
      return lower_cash(function, options);
  }
  return {};
}

LowerStats lower_module(ir::Module& module, const LowerOptions& options) {
  LowerStats stats;
  for (auto& function : module.functions) {
    stats += lower_function(*function, options);
  }
  return stats;
}

} // namespace cash::passes
